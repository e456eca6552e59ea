/// @file workloads.cpp
/// @brief The closed loop, the three workloads and their correctness checks.
#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "apps/kasched/scheduler.hpp"
#include "apps/kasched/task.hpp"
#include "kamping/kamping.hpp"
#include "kamping/plugin/plugins.hpp"
#include "xmpi/xmpi.hpp"

namespace perfbench {

namespace km = kamping;

Counts Counts::of(xmpi::profile::Snapshot const& s) {
    Counts c;
    c.calls = s.total_calls();
    c.messages = s.messages_sent;
    c.bytes = s.bytes_sent;
    c.coalesced = s.coalesced_sends;
    c.ring_full_fallbacks = s.ring_full_fallbacks;
    c.rendezvous = s.rendezvous_transfers;
    c.bytes_zero_copied = s.bytes_zero_copied;
    c.pool_hits = s.pool_hits;
    c.pool_misses = s.pool_misses;
    c.engine_tasks = s.engine_tasks;
    c.engine_inline = s.engine_inline_fallbacks;
    c.engine_steals = s.engine_caller_steals;
    c.engine_stalls = s.engine_stall_escalations;
    c.rma_atomics = s.rma_atomics;
    c.rma_epoch_waits = s.rma_epoch_waits;
    c.steals_attempted = s.sched_steals_attempted;
    c.steals_succeeded = s.sched_steals_succeeded;
    c.tasks_executed = s.sched_tasks_executed;
    return c;
}

#define PERFBENCH_COUNT_FIELDS(X)                                                              \
    X(calls) X(messages) X(bytes) X(coalesced) X(ring_full_fallbacks) X(rendezvous)          \
    X(bytes_zero_copied) X(pool_hits) X(pool_misses) X(engine_tasks) X(engine_inline)         \
    X(engine_steals) X(engine_stalls) X(rma_atomics) X(rma_epoch_waits) X(steals_attempted)   \
    X(steals_succeeded) X(tasks_executed)

Counts Counts::operator-(Counts const& o) const {
    Counts c;
#define PERFBENCH_SUB(f) c.f = f - o.f;
    PERFBENCH_COUNT_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    return c;
}

Counts& Counts::operator+=(Counts const& o) {
#define PERFBENCH_ADD(f) f += o.f;
    PERFBENCH_COUNT_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    return *this;
}

namespace {

std::vector<WorkloadSpec> make_specs() {
    std::vector<WorkloadSpec> specs;
    // Binding layer, API entry, eager transport and the wait ladder; no
    // rendezvous, collective selection or RMA.
    WorkloadSpec p2p;
    p2p.name = "p2p_small";
    p2p.p = 2;
    p2p.warmup_ops = 64;
    p2p.counter_window = 256;
    p2p.probe_msg_bytes = 4096;
    p2p.probe_coll_bytes = 256;
    p2p.form_uses = {
        {"send", 18}, {"recv_count", 6}, {"recv_probe", 6}, {"recv_vec", 6}, {"isend_irecv", 6}};
    specs.push_back(p2p);
    // Registry selection, collective algorithms, many-to-many transport,
    // the progress engine and the persistent path. p = 3: at p = 4 rank
    // threads and the engine worker would oversubscribe a 4-core host.
    WorkloadSpec coll;
    coll.name = "coll_mix";
    coll.p = 3;
    coll.warmup_ops = 64;
    coll.counter_window = 256;
    coll.probe_msg_bytes = 16384;
    coll.probe_coll_bytes = 1024;
    coll.collective_ops = true;
    coll.form_uses = {
        {"allreduce", 3}, {"alltoallv", 3}, {"allgatherv", 3}, {"bcast", 3}, {"allreduce_plan", 3}};
    specs.push_back(coll);
    // RMA atomics and locks, the sparse NBX alltoall and kasched's load
    // balance; its kamping calls happen inside the scheduler, so no raw
    // equivalent is charged against it.
    WorkloadSpec sched;
    sched.name = "sched";
    sched.p = 3;
    sched.elastic = true;
    sched.warmup_ops = 0;
    sched.counter_window = 1;
    sched.probe_msg_bytes = 8;
    sched.probe_coll_bytes = 8;
    specs.push_back(sched);

    int const nproc = host_nproc();
    for (auto& spec: specs) {
        spec.engine_threads = static_cast<unsigned>(std::max(1, nproc - spec.p));
    }
    return specs;
}

std::vector<WorkloadSpec> const& specs() {
    static std::vector<WorkloadSpec> const all = make_specs();
    return all;
}

/// Payload bytes and work units the ops of one rank accounted for.
struct Tally {
    double bytes = 0.0;
    double tasks = 0.0;
};

struct RankOut {
    Phase timed;
    Phase traced;
    Counts window;
    std::vector<std::uint64_t> failed_ops;
    std::uint64_t ops_issued = 0;
    std::uint64_t sched_rounds = 0;
    std::uint64_t sched_runs = 0;
};

/// State of one world run, shared by its rank threads; each rank writes
/// only its own slots, rank 0 alone writes the census.
struct Shared {
    WorkloadSpec const& spec;
    Options const& options;
    bool setup_only = false;
    /// Index of the world's first op; set-up trials each start at their own
    /// index, so together they sample the workload's seeded first ops.
    std::uint64_t first_op = 0;
    double sched_expected_small = 0.0;
    double sched_expected_large = 0.0;
    std::int64_t world_created_ns = 0;
    std::vector<std::int64_t> first_done_ns;
    std::vector<RankOut> out;
    std::vector<Lane> lanes;
    int census_max = 0;
    int threads_max = 0;
    std::mutex error_mutex;
    std::vector<std::string> errors; ///< guarded by error_mutex

    Shared(WorkloadSpec const& s, Options const& o, bool setup)
        : spec(s),
          options(o),
          setup_only(setup),
          first_done_ns(static_cast<std::size_t>(s.p), 0),
          out(static_cast<std::size_t>(s.p)),
          lanes(static_cast<std::size_t>(s.p)) {}

    void add_error(std::string message) {
        std::lock_guard lock(error_mutex);
        errors.push_back(std::move(message));
    }
};

constexpr std::uint64_t kRankStride = 0x9E3779B97F4A7C15ull; // spreads rank terms
constexpr std::uint64_t kPeerStride = 0xC2B2AE3D27D4EB4Full;
constexpr std::size_t kSpansPerLane = 400'000;

/// The closed loop of one rank: first op (ends set-up), warm-up, the timed
/// phase, and for a traced run the traced phase. Between chunks of ops rank
/// 0 decides whether to go on and broadcasts the decision, so every rank
/// runs the same number of ops and no sync falls inside an op.
template <typename OpFn>
void drive(Shared& sh, int rank, XMPI_Comm comm, OpFn&& op) {
    auto& out = sh.out[static_cast<std::size_t>(rank)];
    Lane& lane = sh.lanes[static_cast<std::size_t>(rank)];
    Tally tally;
    std::int64_t last_done = 0;
    auto one = [&]() -> std::int64_t {
        std::uint64_t const index = sh.first_op + out.ops_issued++;
        lane.op_begin(index);
        std::int64_t const t0 = wall_ns();
        bool const ok = op(index, lane, tally);
        std::int64_t const t1 = wall_ns();
        lane.op_end();
        if (!ok) {
            out.failed_ops.push_back(index);
        }
        last_done = t1;
        return t1 - t0;
    };

    one();
    sh.first_done_ns[static_cast<std::size_t>(rank)] = wall_ns();
    if (sh.setup_only) {
        return;
    }
    for (int i = 0; i < sh.spec.warmup_ops; ++i) {
        one();
    }

    auto phase = [&](Phase& ph, double seconds, bool count_window) {
        auto const snap0 = Counts::of(xmpi::profile::my_snapshot());
        auto const usage0 = ThreadUsage::now();
        Tally const tally0 = tally;
        std::int64_t const start = wall_ns();
        ph.start_ns = start;
        std::uint64_t chunk = sh.spec.counter_window;
        bool first_chunk = true;
        while (true) {
            std::int64_t const chunk_start = wall_ns();
            for (std::uint64_t i = 0; i < chunk; ++i) {
                std::int64_t const latency = one();
                if (rank == 0) {
                    ph.lat_ns.push_back(latency);
                    ph.done_ns.push_back(last_done);
                }
            }
            ph.ops += chunk;
            if (first_chunk && count_window) {
                out.window = Counts::of(xmpi::profile::my_snapshot()) - snap0;
            }
            first_chunk = false;
            int next = 0;
            if (rank == 0) {
                std::int64_t const now = wall_ns();
                int const alive = live_threads();
                sh.threads_max = std::max(sh.threads_max, alive);
                // The main thread is parked joining the rank threads.
                sh.census_max = std::max(sh.census_max, alive - 1);
                double const elapsed = 1e-9 * static_cast<double>(now - start);
                double const per_op =
                    1e-9 * static_cast<double>(now - chunk_start) / static_cast<double>(chunk);
                double const remaining = seconds - elapsed;
                if (remaining > 0.5 * per_op) {
                    double const target = std::min(0.05, remaining);
                    next = static_cast<int>(std::clamp(target / per_op, 1.0, 65536.0));
                }
            }
            XMPI_Bcast(&next, 1, XMPI_INT, 0, comm);
            if (next == 0) {
                break;
            }
            chunk = static_cast<std::uint64_t>(next);
        }
        ph.seconds = 1e-9 * static_cast<double>(wall_ns() - start);
        ph.rank_wall_s = ph.seconds;
        ph.usage = ThreadUsage::now() - usage0;
        ph.counts = Counts::of(xmpi::profile::my_snapshot()) - snap0;
        ph.bytes = tally.bytes - tally0.bytes;
        ph.tasks = tally.tasks - tally0.tasks;
    };

    if (sh.options.trace) {
        // Untraced and traced halves leave the rest of the run to the probes.
        phase(out.timed, 0.4 * sh.options.seconds, true);
        lane.cap = kSpansPerLane;
        lane.spans.reserve(kSpansPerLane);
        lane.on = true;
        phase(out.traced, 0.4 * sh.options.seconds, false);
        lane.on = false;
    } else {
        phase(out.timed, sh.options.seconds, true);
    }
}

bool equal_words(std::vector<std::uint64_t> const& got, std::size_t n, auto&& expected) {
    if (got.size() != n) {
        return false;
    }
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < n; ++i) {
        diff |= got[i] ^ expected(i);
    }
    return diff == 0;
}

// ---------------------------------------------------------------------------
// p2p_small: ping-pong over the kamping point-to-point call forms
// ---------------------------------------------------------------------------

void p2p_small_rank(Shared& sh, int rank) {
    km::Communicator comm;
    int const peer = 1 - rank;
    std::uint64_t const seed = sh.options.seed;
    static constexpr std::array<std::size_t, 3> kWords{1, 32, 512}; // 8 B, 256 B, 4 KiB
    std::array<std::vector<std::uint64_t>, 3> sbuf;
    std::array<std::vector<std::uint64_t>, 3> rbuf;
    for (std::size_t s = 0; s < kWords.size(); ++s) {
        sbuf[s].resize(kWords[s]);
        rbuf[s].resize(kWords[s]);
    }
    double bytes_per_op = 0.0;
    for (auto words: kWords) {
        bytes_per_op += 2.0 * 4.0 * 8.0 * static_cast<double>(words); // 4 legs, both directions
    }

    drive(sh, rank, comm.mpi_communicator(), [&](std::uint64_t index, Lane& lane, Tally& tally) {
        bool ok = true;
        for (std::size_t s = 0; s < kWords.size(); ++s) {
            std::size_t const n = kWords[s];
            auto& sb = sbuf[s];
            auto& rb = rbuf[s];
            for (int leg = 0; leg < 4; ++leg) {
                std::uint64_t const msg = (index * kWords.size() + s) * 4 + static_cast<std::uint64_t>(leg);
                std::uint64_t const out_key = mix(seed, msg, static_cast<std::uint64_t>(rank));
                std::uint64_t const in_key = mix(seed, msg, static_cast<std::uint64_t>(peer));
                fill_pattern(sb.data(), n, out_key);
                if (leg == 3) {
                    lane.call("kamping.isend_irecv", [&] {
                        auto recv = comm.irecv(
                            km::recv_buf(rb), km::recv_count(static_cast<int>(n)), km::source(peer),
                            km::tag(leg));
                        auto send = comm.isend(km::send_buf(sb), km::destination(peer), km::tag(leg));
                        send.wait();
                        recv.wait();
                    });
                    ok = check_pattern(rb.data(), n, in_key) && ok;
                    continue;
                }
                auto send = [&] {
                    lane.call("kamping.send", [&] {
                        comm.send(km::send_buf(sb), km::destination(peer), km::tag(leg));
                    });
                };
                auto receive = [&]() -> bool {
                    if (leg == 0) {
                        lane.call("kamping.recv_count", [&] {
                            comm.recv(
                                km::recv_buf(rb), km::recv_count(static_cast<int>(n)), km::source(peer),
                                km::tag(leg));
                        });
                        return check_pattern(rb.data(), n, in_key);
                    }
                    if (leg == 1) {
                        lane.call("kamping.recv_probe", [&] {
                            comm.recv(km::recv_buf(rb), km::source(peer), km::tag(leg));
                        });
                        return check_pattern(rb.data(), n, in_key);
                    }
                    auto vec = lane.call("kamping.recv_vec", [&] {
                        return comm.recv<std::uint64_t>(km::source(peer), km::tag(leg));
                    });
                    return vec.size() == n && check_pattern(vec.data(), n, in_key);
                };
                if (rank == 0) {
                    send();
                    ok = receive() && ok;
                } else {
                    ok = receive() && ok;
                    send();
                }
            }
        }
        tally.bytes += bytes_per_op;
        tally.tasks += 48.0; // kamping calls per op: 8 per size and rank
        return ok;
    });
}

// ---------------------------------------------------------------------------
// coll_mix: one-shot, persistent and non-blocking collectives at seeded sizes
// ---------------------------------------------------------------------------

void coll_mix_rank(Shared& sh, int rank) {
    km::Communicator comm;
    auto const p = static_cast<std::uint64_t>(comm.size());
    auto const r = static_cast<std::uint64_t>(rank);
    std::uint64_t const seed = sh.options.seed;
    constexpr std::size_t kMaxWords = 2048; // 16 KiB
    std::size_t const cap = kMaxWords + 4 * p;
    std::vector<std::uint64_t> in, out, sb, rb, gb, grb, bb, iv;
    for (auto* v: {&in, &out, &sb, &rb, &gb, &grb, &bb, &iv}) {
        v->reserve(cap * 2);
    }
    std::vector<int> send_counts(p);
    // The plan's size is fixed: a seeded size would make one seed's runs
    // systematically slower than another's.
    constexpr std::size_t plan_words = 128;
    auto plan = comm.allreduce_plan(
        km::send_recv_buf(std::vector<std::uint64_t>(plan_words)), km::op(std::plus<>{}));
    // Closed form of an allreduce-sum over ranks of base + rank * stride + i.
    auto sum_of = [p](std::uint64_t base, std::uint64_t i) {
        return p * base + kRankStride * (p * (p - 1) / 2) + p * i;
    };

    drive(sh, rank, comm.mpi_communicator(), [&](std::uint64_t index, Lane& lane, Tally& tally) {
        bool ok = true;
        std::uint64_t const h = mix(seed, index);
        // Log-uniform payload size from 8 B to 16 KiB.
        double const u = static_cast<double>(h >> 11) * 0x1.0p-53;
        auto const n = std::max<std::size_t>(1, static_cast<std::size_t>(std::exp2(3.0 + 11.0 * u)) / 8);
        double bytes = 0.0;

        std::uint64_t const base_ar = mix(h, 1);
        in.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            in[i] = base_ar + r * kRankStride + i;
        }
        lane.call("kamping.allreduce", [&] {
            comm.allreduce(km::send_buf(in), km::recv_buf<km::resize_to_fit>(out), km::op(std::plus<>{}));
        });
        ok = equal_words(out, n, [&](std::size_t i) { return sum_of(base_ar, i); }) && ok;
        bytes += static_cast<double>(p * n * 8);

        std::uint64_t const base_a2a = mix(h, 2);
        std::size_t const na = std::max<std::size_t>(1, n / p);
        auto count = [&](std::uint64_t src, std::uint64_t dst) {
            return na + static_cast<std::size_t>((src + 2 * dst + index) % 3);
        };
        sb.clear();
        for (std::uint64_t d = 0; d < p; ++d) {
            send_counts[d] = static_cast<int>(count(r, d));
            for (std::size_t j = 0; j < count(r, d); ++j) {
                sb.push_back(base_a2a + r * kRankStride + d * kPeerStride + j);
            }
        }
        lane.call("kamping.alltoallv", [&] {
            comm.alltoallv(
                km::send_buf(sb), km::send_counts(send_counts), km::recv_buf<km::resize_to_fit>(rb));
        });
        {
            std::size_t offset = 0;
            std::uint64_t diff = 0;
            std::size_t total = 0;
            for (std::uint64_t s = 0; s < p; ++s) {
                total += count(s, r);
            }
            if (rb.size() != total) {
                ok = false;
            } else {
                for (std::uint64_t s = 0; s < p; ++s) {
                    for (std::size_t j = 0; j < count(s, r); ++j) {
                        diff |= rb[offset++] ^ (base_a2a + s * kRankStride + r * kPeerStride + j);
                    }
                }
                ok = diff == 0 && ok;
            }
            for (std::uint64_t s = 0; s < p; ++s) {
                for (std::uint64_t d = 0; d < p; ++d) {
                    bytes += static_cast<double>(count(s, d) * 8);
                }
            }
        }

        std::uint64_t const base_ag = mix(h, 3);
        std::size_t const ng = std::max<std::size_t>(1, n / p);
        gb.resize(ng + r);
        for (std::size_t j = 0; j < gb.size(); ++j) {
            gb[j] = base_ag + r * kRankStride + j;
        }
        lane.call("kamping.allgatherv", [&] {
            comm.allgatherv(km::send_buf(gb), km::recv_buf<km::resize_to_fit>(grb));
        });
        {
            std::size_t offset = 0;
            std::uint64_t diff = 0;
            std::size_t const total = p * ng + p * (p - 1) / 2;
            if (grb.size() != total) {
                ok = false;
            } else {
                for (std::uint64_t s = 0; s < p; ++s) {
                    for (std::size_t j = 0; j < ng + s; ++j) {
                        diff |= grb[offset++] ^ (base_ag + s * kRankStride + j);
                    }
                }
                ok = diff == 0 && ok;
            }
            bytes += static_cast<double>(total * 8);
        }

        int const bcast_root = static_cast<int>(index % p);
        std::uint64_t const key_bc = mix(h, 4);
        bb.resize(n);
        if (rank == bcast_root) {
            fill_pattern(bb.data(), n, key_bc);
        }
        lane.call("kamping.bcast", [&] {
            comm.bcast(km::send_recv_buf(bb), km::root(bcast_root), km::recv_count(static_cast<int>(n)));
        });
        ok = check_pattern(bb.data(), n, key_bc) && ok;
        bytes += static_cast<double>(n * 8);

        std::uint64_t const base_plan = mix(h, 5);
        for (std::size_t i = 0; i < plan_words; ++i) {
            plan.data()[i] = base_plan + r * kRankStride + i;
        }
        lane.call("kamping.allreduce_plan", [&] {
            plan.start();
            plan.wait();
        });
        {
            std::uint64_t diff = 0;
            for (std::size_t i = 0; i < plan_words; ++i) {
                diff |= plan.data()[i] ^ sum_of(base_plan, i);
            }
            ok = diff == 0 && ok;
            bytes += static_cast<double>(p * plan_words * 8);
        }

        std::uint64_t const base_iar = mix(h, 6);
        iv.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            iv[i] = base_iar + r * kRankStride + i;
        }
        lane.call("kamping.iallreduce", [&] {
            auto pending = comm.iallreduce(km::send_recv_buf(std::move(iv)), km::op(std::plus<>{}));
            iv = pending.wait();
        });
        ok = equal_words(iv, n, [&](std::size_t i) { return sum_of(base_iar, i); }) && ok;
        bytes += static_cast<double>(p * n * 8);

        tally.bytes += bytes;
        tally.tasks += 6.0 * static_cast<double>(p); // kamping collective calls, all ranks
        return ok;
    });
}

// ---------------------------------------------------------------------------
// sched: kasched over 2^20 tasks on an elastic world
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSchedTasks = std::uint64_t{1} << 20;
/// The first op (it ends set-up) is a short scheduler run.
constexpr std::uint64_t kSchedFirstTasks = std::uint64_t{1} << 12;

/// Closed form of the ledger checksum: the sum of every task's contribution.
double sched_expected_checksum(std::uint64_t n_tasks) {
    long double sum = 0.0L;
    for (std::uint64_t id = 0; id < n_tasks; ++id) {
        sum += apps::kasched::contribution(id);
    }
    return static_cast<double>(sum);
}

void sched_rank(Shared& sh, int rank) {
    km::FullCommunicator comm;
    auto& out = sh.out[static_cast<std::size_t>(rank)];
    drive(sh, rank, comm.mpi_communicator(), [&](std::uint64_t index, Lane& lane, Tally& tally) {
        apps::kasched::Config config;
        bool const first = index == sh.first_op;
        config.n_tasks = first ? kSchedFirstTasks : kSchedTasks;
        config.seed = mix(sh.options.seed, index);
        auto const stats = lane.call(
            "apps.kasched.run_scheduler", [&] { return apps::kasched::run_scheduler(comm, config); });
        double const expected = first ? sh.sched_expected_small : sh.sched_expected_large;
        if (!first) {
            out.sched_rounds += stats.rounds;
            ++out.sched_runs;
        }
        tally.bytes += 8.0 * static_cast<double>(config.n_tasks); // task ids scheduled
        tally.tasks += static_cast<double>(config.n_tasks);
        return stats.done_tasks == config.n_tasks && stats.checksum_converged
            && std::abs(stats.checksum - expected) <= 1e-6;
    });
}

// ---------------------------------------------------------------------------

void run_world(Shared& sh) {
    int const p = sh.spec.p;
    sh.world_created_ns = wall_ns();
    xmpi::World world(p, {}, sh.spec.elastic ? p : 0);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(p));
    std::string const name = sh.spec.name;
    for (int rank = 0; rank < p; ++rank) {
        threads.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            try {
                if (name == "p2p_small") {
                    p2p_small_rank(sh, rank);
                } else if (name == "coll_mix") {
                    coll_mix_rank(sh, rank);
                } else {
                    sched_rank(sh, rank);
                }
            } catch (xmpi::RankKilled const&) {
                sh.add_error("rank " + std::to_string(rank) + " was killed");
            } catch (std::exception const& e) {
                sh.add_error("rank " + std::to_string(rank) + ": " + e.what());
                world.mark_failed(rank);
            } catch (...) {
                sh.add_error("rank " + std::to_string(rank) + ": unknown exception");
                world.mark_failed(rank);
            }
            world.detach_current_thread();
        });
    }
    for (auto& thread: threads) {
        thread.join();
    }
}

/// Rank 0's latencies and elapsed time, usage and counters summed over ranks.
Phase combine(std::vector<RankOut> const& out, Phase RankOut::*which) {
    Phase combined = out.front().*which;
    for (std::size_t rank = 1; rank < out.size(); ++rank) {
        Phase const& ph = out[rank].*which;
        combined.usage += ph.usage;
        combined.rank_wall_s += ph.rank_wall_s;
        combined.counts += ph.counts;
    }
    return combined;
}

} // namespace

WorkloadSpec const* find_workload(std::string const& name) {
    for (auto const& spec: specs()) {
        if (name == spec.name) {
            return &spec;
        }
    }
    return nullptr;
}

WorkloadResult run_workload(WorkloadSpec const& spec, Options const& options, int setup_trials) {
    WorkloadResult result;
    double expected_small = 0.0;
    double expected_large = 0.0;
    if (std::string(spec.name) == "sched") {
        expected_small = sched_expected_checksum(kSchedFirstTasks);
        expected_large = sched_expected_checksum(kSchedTasks);
    }

    auto account = [&](Shared& sh) {
        std::int64_t last = 0;
        for (auto t: sh.first_done_ns) {
            last = std::max(last, t);
        }
        result.setup_s.push_back(1e-9 * static_cast<double>(last - sh.world_created_ns));
        std::vector<std::uint64_t> failed;
        for (auto const& out: sh.out) {
            failed.insert(failed.end(), out.failed_ops.begin(), out.failed_ops.end());
        }
        std::sort(failed.begin(), failed.end());
        failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
        result.attempted += sh.out.front().ops_issued;
        result.failed += failed.size() + sh.errors.size();
        result.errors.insert(result.errors.end(), sh.errors.begin(), sh.errors.end());
    };

    // Set-up trials stop early after a twentieth of the run's time.
    std::int64_t const setup_start = wall_ns();
    auto const setup_budget_ns = static_cast<std::int64_t>(0.05e9 * options.seconds);
    for (int trial = 0; trial < setup_trials && wall_ns() - setup_start < setup_budget_ns; ++trial) {
        Shared sh(spec, options, /*setup=*/true);
        sh.first_op = static_cast<std::uint64_t>(trial + 1) << 40;
        sh.sched_expected_small = expected_small;
        sh.sched_expected_large = expected_large;
        run_world(sh);
        account(sh);
    }

    Shared sh(spec, options, /*setup=*/false);
    sh.sched_expected_small = expected_small;
    sh.sched_expected_large = expected_large;
    run_world(sh);
    account(sh);

    result.timed = combine(sh.out, &RankOut::timed);
    if (options.trace) {
        result.traced = combine(sh.out, &RankOut::traced);
    }
    result.window_ops = spec.counter_window;
    for (auto const& out: sh.out) {
        result.window += out.window;
    }
    result.census_max = sh.census_max;
    result.threads_max = sh.threads_max;

    if (std::string(spec.name) == "sched") {
        double max_tasks = 0.0;
        double sum_tasks = 0.0;
        std::uint64_t rounds = 0;
        std::uint64_t runs = 0;
        for (auto const& out: sh.out) {
            auto const executed = static_cast<double>(out.timed.counts.tasks_executed);
            max_tasks = std::max(max_tasks, executed);
            sum_tasks += executed;
            rounds = std::max(rounds, out.sched_rounds);
            runs = std::max(runs, out.sched_runs);
        }
        double const mean_tasks = sum_tasks / static_cast<double>(sh.out.size());
        result.stats["imbalance"] = mean_tasks > 0.0 ? max_tasks / mean_tasks : 0.0;
        result.stats["rounds_per_run"] =
            runs > 0 ? static_cast<double>(rounds) / static_cast<double>(runs) : 0.0;
        // Every task of the timed runs must have been executed exactly once.
        double const expected_tasks = static_cast<double>(kSchedTasks) * static_cast<double>(result.timed.ops);
        if (sum_tasks != expected_tasks) {
            result.errors.push_back(
                "sched executed " + std::to_string(sum_tasks) + " tasks, expected "
                + std::to_string(expected_tasks));
            ++result.failed;
        }
    }
    result.lanes = std::move(sh.lanes);
    return result;
}

} // namespace perfbench
