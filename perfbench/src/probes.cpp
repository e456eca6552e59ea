/// @file probes.cpp
/// @brief Layer probes: kamping-vs-raw ABBA pairs on a loopback, XMPI entry,
/// selection, transport, wait, progress, persistent, RMA and world spawn.
#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "kamping/kamping.hpp"
#include "xmpi/tuning.hpp"
#include "xmpi/xmpi.hpp"

namespace perfbench {

namespace km = kamping;

namespace {

using Word = std::uint64_t;

/// Keeps a value observable so the compiler cannot drop the work behind it.
template <typename T>
void keep(T const& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

XMPI_Datatype word_type() { return km::mpi_datatype<Word>(); }

/// Median over @c blocks of the thread-CPU time of @c reps calls of @c fn,
/// per call, in nanoseconds.
double cpu_per_call_ns(int blocks, int reps, std::function<void()> const& fn) {
    for (int i = 0; i < reps; ++i) {
        fn();
    }
    std::vector<double> per_call;
    per_call.reserve(static_cast<std::size_t>(blocks));
    for (int b = 0; b < blocks; ++b) {
        std::int64_t const c0 = thread_cpu_ns();
        for (int i = 0; i < reps; ++i) {
            fn();
        }
        per_call.push_back(static_cast<double>(thread_cpu_ns() - c0) / reps);
    }
    return median(per_call);
}

/// Paired ABBA thread-CPU median of (a - b) per unit. Re-measures (up to
/// three rounds of quads, pooled) while the noise band exceeds the value.
Paired abba(std::function<void()> const& a, std::function<void()> const& b) {
    constexpr int kReps = 128;
    constexpr int kQuads = 31;
    auto block = [&](std::function<void()> const& fn) {
        std::int64_t const c0 = thread_cpu_ns();
        for (int i = 0; i < kReps; ++i) {
            fn();
        }
        return thread_cpu_ns() - c0;
    };
    block(a);
    block(b);
    Paired result;
    auto const calls0 = xmpi::profile::my_snapshot().total_calls();
    block(a);
    auto const calls1 = xmpi::profile::my_snapshot().total_calls();
    block(b);
    auto const calls2 = xmpi::profile::my_snapshot().total_calls();
    result.kamping_calls = static_cast<double>(calls1 - calls0) / kReps;
    result.raw_calls = static_cast<double>(calls2 - calls1) / kReps;

    std::vector<double> deltas;
    for (int round = 0; round < 3; ++round) {
        for (int q = 0; q < kQuads; ++q) {
            auto const a1 = block(a);
            auto const b1 = block(b);
            auto const b2 = block(b);
            auto const a2 = block(a);
            deltas.push_back(static_cast<double>(a1 + a2 - b1 - b2) / (2.0 * kReps));
        }
        result.value_ns = median(deltas);
        result.band_ns = 0.5 * (quantile(deltas, 0.75) - quantile(deltas, 0.25));
        result.quads = static_cast<int>(deltas.size());
        if (result.resolved()) {
            break;
        }
    }
    return result;
}

/// Loopback probes on a world of one rank: the binding layer against raw
/// XMPI, XMPI entry, self round trips and window atomics.
void loopback_probes(WorkloadSpec const& spec, Ledger& ledger) {
    xmpi::World::run(1, [&] {
        km::Communicator comm;
        XMPI_Comm const raw = comm.mpi_communicator();
        XMPI_Datatype const type = word_type();
        constexpr int kTag = 1;
        std::vector<Word> sb(1, 42);
        std::vector<Word> rb(1, 0);
        Word sink = 0;
        XMPI_Status status;
        auto raw_send = [&] { XMPI_Send(sb.data(), 1, type, 0, kTag, raw); };
        auto raw_recv = [&] { XMPI_Recv(rb.data(), 1, type, 0, kTag, raw, &status); };
        auto raw_probe_recv = [&] {
            XMPI_Probe(0, kTag, raw, &status);
            int count = 0;
            XMPI_Get_count(&status, type, &count);
            XMPI_Recv(rb.data(), count, type, 0, kTag, raw, &status);
        };

        auto& k = ledger.kamping;
        k["send"] = abba(
            [&] {
                comm.send(km::send_buf(sb), km::destination(0), km::tag(kTag));
                raw_recv();
            },
            [&] {
                raw_send();
                raw_recv();
            });
        k["recv_count"] = abba(
            [&] {
                raw_send();
                comm.recv(km::recv_buf(rb), km::recv_count(1), km::source(0), km::tag(kTag));
            },
            [&] {
                raw_send();
                raw_recv();
            });
        k["recv_probe"] = abba(
            [&] {
                raw_send();
                comm.recv(km::recv_buf(rb), km::source(0), km::tag(kTag));
            },
            [&] {
                raw_send();
                raw_probe_recv();
            });
        k["recv_vec"] = abba(
            [&] {
                raw_send();
                auto v = comm.recv<Word>(km::source(0), km::tag(kTag));
                sink += v[0];
            },
            [&] {
                raw_send();
                XMPI_Probe(0, kTag, raw, &status);
                int count = 0;
                XMPI_Get_count(&status, type, &count);
                std::vector<Word> v(static_cast<std::size_t>(count));
                XMPI_Recv(v.data(), count, type, 0, kTag, raw, &status);
                sink += v[0];
            });
        k["isend_irecv"] = abba(
            [&] {
                auto recv = comm.irecv(km::recv_buf(rb), km::recv_count(1), km::source(0), km::tag(kTag));
                auto send = comm.isend(km::send_buf(sb), km::destination(0), km::tag(kTag));
                send.wait();
                recv.wait();
            },
            [&] {
                XMPI_Request recv = XMPI_REQUEST_NULL;
                XMPI_Request send = XMPI_REQUEST_NULL;
                XMPI_Irecv(rb.data(), 1, type, 0, kTag, raw, &recv);
                XMPI_Isend(sb.data(), 1, type, 0, kTag, raw, &send);
                XMPI_Wait(&send, XMPI_STATUS_IGNORE);
                XMPI_Wait(&recv, XMPI_STATUS_IGNORE);
            });

        std::vector<Word> out;
        k["allreduce"] = abba(
            [&] {
                comm.allreduce(km::send_buf(sb), km::recv_buf<km::resize_to_fit>(out), km::op(std::plus<>{}));
            },
            [&] {
                out.resize(sb.size());
                XMPI_Allreduce(sb.data(), out.data(), static_cast<int>(sb.size()), type, XMPI_SUM, raw);
            });
        std::vector<int> send_counts{1};
        std::vector<int> recv_counts(1);
        std::vector<int> send_displs(1);
        std::vector<int> recv_displs(1);
        k["alltoallv"] = abba(
            [&] {
                comm.alltoallv(km::send_buf(sb), km::send_counts(send_counts), km::recv_buf<km::resize_to_fit>(out));
            },
            [&] {
                XMPI_Alltoall(send_counts.data(), 1, XMPI_INT, recv_counts.data(), 1, XMPI_INT, raw);
                send_displs[0] = 0;
                recv_displs[0] = 0;
                out.resize(static_cast<std::size_t>(recv_counts[0]));
                XMPI_Alltoallv(
                    sb.data(), send_counts.data(), send_displs.data(), type, out.data(),
                    recv_counts.data(), recv_displs.data(), type, raw);
            });
        k["allgatherv"] = abba(
            [&] { comm.allgatherv(km::send_buf(sb), km::recv_buf<km::resize_to_fit>(out)); },
            [&] {
                int const mine = static_cast<int>(sb.size());
                XMPI_Allgather(&mine, 1, XMPI_INT, recv_counts.data(), 1, XMPI_INT, raw);
                recv_displs[0] = 0;
                out.resize(static_cast<std::size_t>(recv_counts[0]));
                XMPI_Allgatherv(
                    sb.data(), mine, type, out.data(), recv_counts.data(), recv_displs.data(), type, raw);
            });
        std::vector<Word> bb(1, 7);
        k["bcast"] = abba(
            [&] { comm.bcast(km::send_recv_buf(bb), km::root(0), km::recv_count(1)); },
            [&] { XMPI_Bcast(bb.data(), 1, type, 0, raw); });
        {
            auto plan = comm.allreduce_plan(km::send_recv_buf(std::vector<Word>(1, 3)), km::op(std::plus<>{}));
            std::vector<Word> pin(1, 3);
            std::vector<Word> pout(1, 0);
            XMPI_Request request = XMPI_REQUEST_NULL;
            XMPI_Allreduce_init(pin.data(), pout.data(), 1, type, XMPI_SUM, raw, &request);
            k["allreduce_plan"] = abba(
                [&] {
                    plan.start();
                    plan.wait();
                },
                [&] {
                    XMPI_Start(&request);
                    XMPI_Wait(&request, XMPI_STATUS_IGNORE);
                });
            XMPI_Request_free(&request);
        }
        keep(sink);

        // XMPI entry: a send and a receive that the API resolves at entry.
        ledger.values["xmpi.api.entry_ns"] = cpu_per_call_ns(31, 256, [&] {
            XMPI_Send(sb.data(), 1, type, XMPI_PROC_NULL, kTag, raw);
            XMPI_Recv(rb.data(), 1, type, XMPI_PROC_NULL, kTag, raw, &status);
        });

        // Transport round trip of one thread to itself: enqueue, match, copy.
        for (auto [name, words]: {std::pair{"xmpi.transport.self_rtt_ns.8B", std::size_t{1}},
                                  std::pair{"xmpi.transport.self_rtt_ns.4KiB", std::size_t{512}}}) {
            std::vector<Word> s(words, 5);
            std::vector<Word> r(words, 0);
            int const n = static_cast<int>(words);
            ledger.values[name] = cpu_per_call_ns(31, 128, [&] {
                XMPI_Send(s.data(), n, type, 0, kTag, raw);
                XMPI_Recv(r.data(), n, type, 0, kTag, raw, &status);
            });
        }

        // Window atomics on the rank's own window under a shared lock.
        Word* base = nullptr;
        XMPI_Win win = XMPI_WIN_NULL;
        XMPI_Win_allocate(8 * sizeof(Word), sizeof(Word), raw, &base, &win);
        XMPI_Win_lock(XMPI_LOCK_SHARED, 0, 0, win);
        Word compare = 0;
        Word origin = 1;
        Word result = 0;
        ledger.values["xmpi.rma.cas_ns"] = cpu_per_call_ns(31, 256, [&] {
            XMPI_Compare_and_swap(&origin, &compare, &result, type, 0, 0, win);
            std::swap(origin, compare);
        });
        ledger.values["xmpi.rma.fetch_op_ns"] = cpu_per_call_ns(31, 256, [&] {
            XMPI_Fetch_and_op(&origin, &result, type, 0, 1, XMPI_SUM, win);
        });
        keep(result);
        XMPI_Win_unlock(0, win);
        XMPI_Win_free(&win);
    });

    // Collective selection for an allreduce (coll_mix and kasched's rounds
    // call it) at the workload's p and collective probe size.
    xmpi::tuning::SelectCtx ctx;
    ctx.p = spec.p;
    ctx.block_bytes = spec.probe_coll_bytes;
    char const* chosen = nullptr;
    ledger.values["xmpi.coll.select_ns"] = cpu_per_call_ns(31, 1024, [&] {
        chosen = xmpi::tuning::select(xmpi::tuning::CollOp::allreduce, ctx).algorithm;
        keep(chosen);
    });
}

/// Words of the large-message probe: 1 MiB, far above the rendezvous threshold.
constexpr std::size_t kLargeWords = (std::size_t{1} << 20) / sizeof(Word);

/// Number of repetitions for a wall-clock probe moving @c bytes per call.
int reps_for(std::size_t bytes) {
    return static_cast<int>(std::clamp<std::size_t>((std::size_t{8} << 20) / std::max<std::size_t>(bytes, 64), 24, 400));
}

/// Probes at the workload's rank count: point-to-point send and receive,
/// the copy ratio at the workload's message size and at 1 MiB, the four
/// collectives, the progress engine and the persistent path, all timed as
/// rank 0 sees them.
void world_probes(WorkloadSpec const& spec, Ledger& ledger) {
    std::size_t const msg_words = std::max<std::size_t>(1, spec.probe_msg_bytes / sizeof(Word));
    std::size_t const coll_words = std::max<std::size_t>(1, spec.probe_coll_bytes / sizeof(Word));
    int const msg_reps = reps_for(spec.probe_msg_bytes);
    int const coll_reps = reps_for(spec.probe_coll_bytes * static_cast<std::size_t>(spec.p));

    xmpi::World::run(spec.p, [&] {
        XMPI_Comm const comm = XMPI_COMM_WORLD;
        int rank = 0;
        int p = 0;
        XMPI_Comm_rank(comm, &rank);
        XMPI_Comm_size(comm, &p);
        XMPI_Datatype const type = word_type();
        auto record = [&](char const* name, std::vector<std::int64_t> const& samples) {
            if (rank == 0) {
                ledger.values[name] = 1e-3 * median(samples);
            }
        };

        // Point-to-point between ranks 0 and 1 (the others wait at the
        // barrier): send, receive and one-way times of a ping-pong of
        // @c words, as rank 0 sees them.
        struct PingPong {
            std::vector<std::int64_t> send_ns, recv_ns, one_way_ns;
        };
        auto ping_pong = [&](std::size_t words, int reps) {
            std::vector<Word> s(words, 1);
            std::vector<Word> r(words, 0);
            int const n = static_cast<int>(words);
            PingPong pp;
            for (int i = -4; i < reps; ++i) {
                if (rank == 0) {
                    std::int64_t const t0 = wall_ns();
                    XMPI_Send(s.data(), n, type, 1, 3, comm);
                    std::int64_t const t1 = wall_ns();
                    XMPI_Recv(r.data(), n, type, 1, 3, comm, XMPI_STATUS_IGNORE);
                    std::int64_t const t2 = wall_ns();
                    if (i >= 0) {
                        pp.send_ns.push_back(t1 - t0);
                        pp.recv_ns.push_back(t2 - t1);
                        pp.one_way_ns.push_back((t2 - t0) / 2);
                    }
                } else if (rank == 1) {
                    XMPI_Recv(r.data(), n, type, 0, 3, comm, XMPI_STATUS_IGNORE);
                    XMPI_Send(s.data(), n, type, 0, 3, comm);
                }
            }
            XMPI_Barrier(comm);
            return pp;
        };
        // One-way message time / a memcpy of the same size, measured in the same run.
        auto copy_ratio = [&](std::size_t words, PingPong const& pp) {
            std::size_t const bytes = words * sizeof(Word);
            std::vector<Word> s(words, 1);
            std::vector<Word> r(words, 0);
            int const inner = static_cast<int>(std::clamp<std::size_t>((std::size_t{64} << 10) / bytes, 1, 4096));
            std::vector<double> copy_ns;
            for (int b = -2; b < 31; ++b) {
                std::int64_t const t0 = wall_ns();
                for (int i = 0; i < inner; ++i) {
                    std::memcpy(r.data(), s.data(), bytes);
                    keep(r[0]);
                }
                if (b >= 0) {
                    copy_ns.push_back(static_cast<double>(wall_ns() - t0) / inner);
                }
            }
            return median(pp.one_way_ns) / std::max(1.0, median(copy_ns));
        };
        PingPong const msg = ping_pong(msg_words, msg_reps);
        record("xmpi.transport.send_us", msg.send_ns);
        record("xmpi.wait.recv_us", msg.recv_ns);
        // The large-message path (rendezvous hand-shake and copy) at 1 MiB,
        // on every workload.
        PingPong const large = ping_pong(kLargeWords, reps_for(kLargeWords * sizeof(Word)));
        record("xmpi.transport.send_us.1MiB", large.send_ns);
        if (rank == 0) {
            ledger.values["xmpi.transport.copy_ratio"] = copy_ratio(msg_words, msg);
            ledger.values["xmpi.transport.copy_ratio.1MiB"] = copy_ratio(kLargeWords, large);
        }

        // The four collectives of coll_mix through the raw API. The v-variants
        // move per_peer words per rank pair (at least one, so p words when
        // the probe size is a single word).
        int const cn = static_cast<int>(coll_words);
        int const per_peer = std::max(1, cn / p);
        auto const buffer_words = static_cast<std::size_t>(std::max(cn, per_peer * p));
        std::vector<Word> in(buffer_words, 2);
        std::vector<Word> out(buffer_words, 0);
        std::vector<int> counts(static_cast<std::size_t>(p), per_peer);
        std::vector<int> displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            displs[static_cast<std::size_t>(i)] = i * per_peer;
        }
        auto time_calls = [&](char const* name, auto&& call) {
            std::vector<std::int64_t> samples;
            for (int i = -4; i < coll_reps; ++i) {
                std::int64_t const t0 = wall_ns();
                call();
                if (i >= 0) {
                    samples.push_back(wall_ns() - t0);
                }
            }
            record(name, samples);
        };
        time_calls("xmpi.coll.allreduce_us", [&] {
            XMPI_Allreduce(in.data(), out.data(), cn, type, XMPI_SUM, comm);
        });
        time_calls("xmpi.coll.alltoallv_us", [&] {
            XMPI_Alltoallv(in.data(), counts.data(), displs.data(), type, out.data(), counts.data(), displs.data(), type, comm);
        });
        time_calls("xmpi.coll.allgatherv_us", [&] {
            XMPI_Allgatherv(in.data(), per_peer, type, out.data(), counts.data(), displs.data(), type, comm);
        });
        time_calls("xmpi.coll.bcast_us", [&] { XMPI_Bcast(in.data(), cn, type, 0, comm); });

        // Progress engine: initiation and completion of a non-blocking allreduce.
        std::vector<std::int64_t> start_ns;
        std::vector<std::int64_t> wait_ns;
        for (int i = -4; i < coll_reps; ++i) {
            XMPI_Request request = XMPI_REQUEST_NULL;
            std::int64_t const t0 = wall_ns();
            XMPI_Iallreduce(in.data(), out.data(), cn, type, XMPI_SUM, comm, &request);
            std::int64_t const t1 = wall_ns();
            XMPI_Wait(&request, XMPI_STATUS_IGNORE);
            std::int64_t const t2 = wall_ns();
            if (i >= 0) {
                start_ns.push_back(t1 - t0);
                wait_ns.push_back(t2 - t1);
            }
        }
        record("xmpi.progress.start_us", start_ns);
        record("xmpi.progress.wait_us", wait_ns);

        // Persistent allreduce: one start + wait round.
        XMPI_Request plan = XMPI_REQUEST_NULL;
        XMPI_Allreduce_init(in.data(), out.data(), cn, type, XMPI_SUM, comm, &plan);
        time_calls("xmpi.persistent.round_us", [&] {
            XMPI_Start(&plan);
            XMPI_Wait(&plan, XMPI_STATUS_IGNORE);
        });
        XMPI_Request_free(&plan);
    });

    // World::run at the workload's p with an empty body.
    std::vector<std::int64_t> spawn_ns;
    for (int i = -3; i < 31; ++i) {
        std::int64_t const t0 = wall_ns();
        xmpi::World::run(spec.p, [] {});
        if (i >= 0) {
            spawn_ns.push_back(wall_ns() - t0);
        }
    }
    ledger.values["xmpi.world.spawn_us"] = 1e-3 * median(spawn_ns);
}

} // namespace

std::vector<std::string> const& kamping_forms() {
    static std::vector<std::string> const forms{
        "send",      "recv_count", "recv_probe", "recv_vec", "isend_irecv",
        "allreduce", "alltoallv",  "allgatherv", "bcast",    "allreduce_plan"};
    return forms;
}

Ledger run_probes(WorkloadSpec const& spec) {
    Ledger ledger;
    loopback_probes(spec, ledger);
    world_probes(spec, ledger);
    return ledger;
}

} // namespace perfbench
