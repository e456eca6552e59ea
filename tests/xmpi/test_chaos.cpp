/// @file test_chaos.cpp
/// @brief The chaos fault-injection subsystem: seeded fault plans, the
/// determinism contract (same plan, same injection points), and the hardened
/// ULFM recovery paths under scheduled failures.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

namespace chaos = xmpi::chaos;
namespace progress = xmpi::progress;
using xmpi::World;

/// @brief Revokes @c comm unless already revoked. As in ULFM, a survivor
/// that observes a failure must revoke to unblock peers that are still
/// inside a collective (see test_ulfm.cpp, CollectiveReportsFailedPeer).
/// Revocation is not a profiled call, so it never perturbs chaos counters.
void revoke_once(XMPI_Comm comm) {
    int revoked = 0;
    XMPI_Comm_is_revoked(comm, &revoked);
    if (revoked == 0) {
        XMPI_Comm_revoke(comm);
    }
}

/// @brief One revoke+shrink recovery step, replacing *comm in place.
void revoke_and_shrink(XMPI_Comm* comm, bool* owned) {
    int revoked = 0;
    XMPI_Comm_is_revoked(*comm, &revoked);
    if (revoked == 0) {
        XMPI_Comm_revoke(*comm);
    }
    XMPI_Comm shrunk = XMPI_COMM_NULL;
    ASSERT_EQ(XMPI_Comm_shrink(*comm, &shrunk), XMPI_SUCCESS);
    if (*owned) {
        XMPI_Comm_free(comm);
    }
    *comm = shrunk;
    *owned = true;
}

// ---------------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------------

/// @brief A fixed program under a fixed plan: every rank runs a fixed call
/// sequence ignoring error codes, so each rank's own call counters — and
/// therefore the injection points — do not depend on thread scheduling.
std::vector<chaos::FiredFault> run_fixed_schedule() {
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(2026)
                              .kill_at_call(3, chaos::Call::allreduce, 4)
                              .kill_with_probability(1, chaos::Call::barrier, 0.2));
    World::run_ranked(5, [](int) {
        for (int i = 0; i < 12; ++i) {
            int value = 1;
            int sum = 0;
            if (XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD)
                != XMPI_SUCCESS) {
                revoke_once(XMPI_COMM_WORLD);
            }
            if (XMPI_Barrier(XMPI_COMM_WORLD) != XMPI_SUCCESS) {
                revoke_once(XMPI_COMM_WORLD);
            }
        }
    });
    return chaos::take_fired_log();
}

TEST(Chaos, SamePlanFiresAtIdenticalPoints) {
    auto const first = run_fixed_schedule();
    auto const second = run_fixed_schedule();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "a seeded plan must be bit-reproducible";
    bool found_at_call = false;
    for (auto const& fired: first) {
        if (fired.fault_index == 0) {
            found_at_call = true;
            EXPECT_EQ(fired.victim, 3);
            EXPECT_EQ(fired.call, chaos::Call::allreduce);
            EXPECT_EQ(fired.nth, 4u) << "must die at exactly the scheduled call";
        }
    }
    EXPECT_TRUE(found_at_call);
}

TEST(Chaos, DifferentSeedsDivergeTheProbabilisticStream) {
    // Two seeds, one probabilistic fault each, same fixed program: the draw
    // sequences differ, so (almost surely) the firing points differ. We only
    // assert that each run is internally well-formed; the cross-seed
    // comparison is informational — equal logs are possible but unlikely.
    auto run_with_seed = [](std::uint64_t seed) {
        (void)chaos::take_fired_log();
        chaos::arm_next_world(
            chaos::FaultPlan(seed).kill_with_probability(1, chaos::Call::barrier, 0.3));
        World::run_ranked(3, [](int) {
            for (int i = 0; i < 20; ++i) {
                if (XMPI_Barrier(XMPI_COMM_WORLD) != XMPI_SUCCESS) {
                    revoke_once(XMPI_COMM_WORLD);
                }
            }
        });
        return chaos::take_fired_log();
    };
    auto const a1 = run_with_seed(1);
    auto const a2 = run_with_seed(1);
    EXPECT_EQ(a1, a2) << "same seed, same firing points";
    for (auto const& fired: a1) {
        EXPECT_EQ(fired.victim, 1);
        EXPECT_EQ(fired.call, chaos::Call::barrier);
    }
}

// ---------------------------------------------------------------------------
// Scheduled kill + recovery for every collective family
// ---------------------------------------------------------------------------

struct CollectiveFamily {
    char const* name;
    chaos::Call call;
    std::function<int(XMPI_Comm)> invoke;
};

std::vector<CollectiveFamily> collective_families() {
    return {
        {"barrier", chaos::Call::barrier, [](XMPI_Comm comm) { return XMPI_Barrier(comm); }},
        {"bcast", chaos::Call::bcast,
         [](XMPI_Comm comm) {
             int rank = 0;
             XMPI_Comm_rank(comm, &rank);
             int value = rank == 0 ? 42 : 0;
             return XMPI_Bcast(&value, 1, XMPI_INT, 0, comm);
         }},
        {"reduce", chaos::Call::reduce,
         [](XMPI_Comm comm) {
             int value = 1;
             int sum = 0;
             return XMPI_Reduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, 0, comm);
         }},
        {"allreduce", chaos::Call::allreduce,
         [](XMPI_Comm comm) {
             int value = 1;
             int sum = 0;
             return XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, comm);
         }},
        {"gather", chaos::Call::gather,
         [](XMPI_Comm comm) {
             int size = 0;
             int rank = 0;
             XMPI_Comm_size(comm, &size);
             XMPI_Comm_rank(comm, &rank);
             std::vector<int> gathered(static_cast<std::size_t>(size));
             return XMPI_Gather(&rank, 1, XMPI_INT, gathered.data(), 1, XMPI_INT, 0, comm);
         }},
        {"allgather", chaos::Call::allgather,
         [](XMPI_Comm comm) {
             int size = 0;
             int rank = 0;
             XMPI_Comm_size(comm, &size);
             XMPI_Comm_rank(comm, &rank);
             std::vector<int> gathered(static_cast<std::size_t>(size));
             return XMPI_Allgather(&rank, 1, XMPI_INT, gathered.data(), 1, XMPI_INT, comm);
         }},
        {"scatter", chaos::Call::scatter,
         [](XMPI_Comm comm) {
             int size = 0;
             XMPI_Comm_size(comm, &size);
             std::vector<int> parts(static_cast<std::size_t>(size), 7);
             int mine = 0;
             return XMPI_Scatter(parts.data(), 1, XMPI_INT, &mine, 1, XMPI_INT, 0, comm);
         }},
        {"alltoall", chaos::Call::alltoall,
         [](XMPI_Comm comm) {
             int size = 0;
             int rank = 0;
             XMPI_Comm_size(comm, &size);
             XMPI_Comm_rank(comm, &rank);
             std::vector<int> sendbuf(static_cast<std::size_t>(size), rank);
             std::vector<int> recvbuf(static_cast<std::size_t>(size));
             return XMPI_Alltoall(sendbuf.data(), 1, XMPI_INT, recvbuf.data(), 1, XMPI_INT, comm);
         }},
        {"scan", chaos::Call::scan,
         [](XMPI_Comm comm) {
             int value = 1;
             int prefix = 0;
             return XMPI_Scan(&value, &prefix, 1, XMPI_INT, XMPI_SUM, comm);
         }},
    };
}

class ChaosCollectives : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(
    Families, ChaosCollectives, ::testing::Range<std::size_t>(0, 9),
    [](auto const& info) { return std::string(collective_families()[info.param].name); });

TEST_P(ChaosCollectives, SurvivorsObserveErrorThenCompleteShrinkAndRetry) {
    auto const family = collective_families()[GetParam()];
    constexpr int kRanks = 4;
    constexpr int kVictim = 2; // not the root: rooted collectives keep rank 0
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(11).kill_at_call(kVictim, family.call, 2));
    World::run_ranked(kRanks, [&](int) {
        XMPI_Comm comm = XMPI_COMM_WORLD;
        bool owned = false;
        bool saw_error = false;
        int err = XMPI_ERR_OTHER;
        // Deadline, not attempt-bounded: in rooted collectives (and scan) a
        // rank whose role never waits on peers — e.g. the bcast root, which
        // just deposits — can complete successfully many times before the
        // victim reaches its scheduled call. It must keep looping until the
        // victim's death makes its next entry fail; exiting early would
        // strand the other survivors in the shrink rendezvous.
        double const deadline = xmpi::wtime() + 60.0;
        while (xmpi::wtime() < deadline) {
            err = family.invoke(comm);
            if (err == XMPI_SUCCESS) {
                int size = 0;
                XMPI_Comm_size(comm, &size);
                if (size == kRanks - 1) {
                    break; // completed on the survivor communicator
                }
                continue;
            }
            saw_error = true;
            revoke_and_shrink(&comm, &owned);
        }
        EXPECT_EQ(err, XMPI_SUCCESS) << "survivors must complete after shrink";
        EXPECT_TRUE(saw_error) << "every survivor must observe the failure";
        if (owned) {
            XMPI_Comm_free(&comm);
        }
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, kVictim);
    EXPECT_EQ(fired[0].call, family.call);
    EXPECT_EQ(fired[0].nth, 2u);
}

// ---------------------------------------------------------------------------
// The mid-rendezvous failure window (regression: hung before survivor-aware
// rendezvous)
// ---------------------------------------------------------------------------

TEST(Chaos, MidRendezvousFailureDoesNotHangAgree) {
    // The victim dies *between* contributing to the agree round and
    // consuming its result — the window that used to leave the round's
    // arrived/consumer accounting waiting for a dead rank forever.
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(7).kill_at_hook(1, chaos::Hook::ft_contributed));
    World::run_ranked(3, [](int rank) {
        int flag = 0b101;
        ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag), XMPI_SUCCESS);
        // The victim contributed before dying; every survivor sees the AND
        // over all three contributions.
        EXPECT_EQ(flag, 0b101);
        // A second round must start from a clean accumulator (no state leak
        // from the round the victim died in).
        int flag2 = rank == 0 ? 0b110 : 0b011;
        ASSERT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag2), XMPI_SUCCESS);
        EXPECT_EQ(flag2, 0b010);
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 1);
}

TEST(Chaos, MidRendezvousFailureDoesNotHangShrink) {
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(3).kill_at_hook(2, chaos::Hook::ft_contributed));
    World::run_ranked(4, [](int) {
        XMPI_Comm survivors = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_shrink(XMPI_COMM_WORLD, &survivors), XMPI_SUCCESS);
        ASSERT_NE(survivors, XMPI_COMM_NULL);
        // The victim died inside the shrink itself; depending on when the
        // survivor set was sampled the result has 3 or 4 members, but it
        // must be consistent and operational among the survivors that hold
        // it — a second shrink then gives exactly the 3 survivors.
        XMPI_Comm settled = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_shrink(survivors, &settled), XMPI_SUCCESS);
        int size = 0;
        XMPI_Comm_size(settled, &size);
        EXPECT_EQ(size, 3);
        int value = 1;
        int sum = 0;
        ASSERT_EQ(XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, settled), XMPI_SUCCESS);
        EXPECT_EQ(sum, 3);
        XMPI_Comm_free(&settled);
        XMPI_Comm_free(&survivors);
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 2);
}

// ---------------------------------------------------------------------------
// Non-blocking and persistent collectives under the failure-watch rule
// (regression: they ran on a context that watched only the direct source, so
// a survivor hung in a relay receive from a live peer that had bailed out)
// ---------------------------------------------------------------------------

/// @brief A p=4 recursive-doubling allreduce whose rank 3 dies at its first
/// @c kill_call, 200 ms after the other ranks' rounds started on engine
/// workers. Rank 2 (round 1 partner of rank 3) and rank 1 (round 2 partner)
/// fail on their source; rank 0's round 2 receive is from rank 2, alive but
/// gone. Each survivor must see XMPI_ERR_PROC_FAILED by itself: none
/// revokes before the 10 s deadline, after which a stuck rank records the
/// failure and revokes so the test fails instead of hanging.
void expect_every_survivor_sees_the_death(
    chaos::Call kill_call, void (*initiate)(int const* value, int* sum, XMPI_Request* request)) {
    constexpr int kVictim = 3;
    // More workers than initiating survivors: XMPI_Test never has to run a
    // round inline, so a stuck round cannot block the polling loop.
    progress::configure({.threads = 4});
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(1).kill_at_call(kVictim, kill_call, 1));
    World::run_ranked(4, [&](int rank) {
        // The workers start lazily at the first engine task; until they are
        // idle, XMPI_Test counts the pool as saturated and runs a round
        // inline. A completed ibcast starts them.
        int warm = 0;
        XMPI_Request warmup = XMPI_REQUEST_NULL;
        ASSERT_EQ(XMPI_Ibcast(&warm, 1, XMPI_INT, 0, XMPI_COMM_WORLD, &warmup), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Wait(&warmup, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Barrier(XMPI_COMM_WORLD), XMPI_SUCCESS);
        if (rank == kVictim) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        int const value = 1;
        int sum = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        initiate(&value, &sum, &request); // the victim dies in here
        int flag = 0;
        int err = XMPI_SUCCESS;
        double const deadline = xmpi::wtime() + 10.0;
        while (flag == 0 && xmpi::wtime() < deadline) {
            err = XMPI_Test(&request, &flag, XMPI_STATUS_IGNORE);
        }
        if (flag == 0) {
            ADD_FAILURE() << "rank " << rank << " still waits after 10 s";
            revoke_once(XMPI_COMM_WORLD);
            err = XMPI_Wait(&request, XMPI_STATUS_IGNORE);
        }
        EXPECT_EQ(err, XMPI_ERR_PROC_FAILED) << "rank " << rank;
        if (request != XMPI_REQUEST_NULL) {
            XMPI_Request_free(&request);
        }
    });
    progress::configure({});
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, kVictim);
}

TEST(Chaos, IallreduceSurvivorsAllSeeAPeerDeathWithoutRevoking) {
    expect_every_survivor_sees_the_death(
        chaos::Call::iallreduce, [](int const* value, int* sum, XMPI_Request* request) {
            ASSERT_EQ(
                XMPI_Iallreduce(value, sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, request),
                XMPI_SUCCESS);
        });
}

TEST(Chaos, PersistentAllreduceSurvivorsAllSeeAPeerDeathWithoutRevoking) {
    expect_every_survivor_sees_the_death(
        chaos::Call::start, [](int const* value, int* sum, XMPI_Request* request) {
            ASSERT_EQ(
                XMPI_Allreduce_init(
                    value, sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, request),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Start(request), XMPI_SUCCESS);
        });
}

// ---------------------------------------------------------------------------
// Other trigger families
// ---------------------------------------------------------------------------

TEST(Chaos, DelayedKillFiresAtFirstCallPastDeadline) {
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(1).kill_after(2, 0.02));
    World::run_ranked(3, [](int) {
        double const deadline = xmpi::wtime() + 30.0; // generous safety net
        bool saw_error = false;
        while (xmpi::wtime() < deadline) {
            int value = 1;
            int sum = 0;
            if (XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD)
                != XMPI_SUCCESS) {
                saw_error = true;
                revoke_once(XMPI_COMM_WORLD); // unblock peers still inside
                break;
            }
        }
        EXPECT_TRUE(saw_error); // only survivors reach this line
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 2);
}

TEST(Chaos, ArmMidRunKillsOnNextEntry) {
    (void)chaos::take_fired_log();
    World::run_ranked(3, [](int rank) {
        int value = 1;
        int sum = 0;
        ASSERT_EQ(
            XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD), XMPI_SUCCESS);
        EXPECT_EQ(sum, 3);
        if (rank == 1) {
            // Arm from inside the run: the victim schedules its own death on
            // its next allreduce entry (deterministic because the victim
            // arms before it can reach the call).
            chaos::arm(chaos::FaultPlan(5).kill_on_entry(1, chaos::Call::allreduce));
        }
        XMPI_Comm comm = XMPI_COMM_WORLD;
        bool owned = false;
        for (int attempt = 0; attempt < 100; ++attempt) {
            int v = 1;
            int s = 0;
            int const err = XMPI_Allreduce(&v, &s, 1, XMPI_INT, XMPI_SUM, comm);
            if (err == XMPI_SUCCESS) {
                int size = 0;
                XMPI_Comm_size(comm, &size);
                if (size == 2) {
                    EXPECT_EQ(s, 2);
                    break;
                }
                continue;
            }
            revoke_and_shrink(&comm, &owned);
        }
        if (owned) {
            XMPI_Comm_free(&comm);
        }
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 1);
    EXPECT_EQ(fired[0].call, chaos::Call::allreduce);
    EXPECT_EQ(fired[0].nth, 2u) << "the victim's second allreduce overall";
}

TEST(Chaos, ProbabilityZeroNeverFires) {
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(9).kill_with_probability(0, chaos::Call::barrier, 0.0));
    World::run_ranked(2, [](int) {
        for (int i = 0; i < 50; ++i) {
            EXPECT_EQ(XMPI_Barrier(XMPI_COMM_WORLD), XMPI_SUCCESS);
        }
    });
    EXPECT_TRUE(chaos::take_fired_log().empty());
}

TEST(Chaos, DisarmStopsInjection) {
    (void)chaos::take_fired_log();
    World::run_ranked(2, [](int rank) {
        if (rank == 1) {
            chaos::arm(chaos::FaultPlan(4).kill_on_entry(1, chaos::Call::barrier));
            chaos::disarm();
        }
        EXPECT_EQ(XMPI_Barrier(XMPI_COMM_WORLD), XMPI_SUCCESS);
    });
    EXPECT_TRUE(chaos::take_fired_log().empty());
}

TEST(Chaos, CancelPendingPlanLeavesNextWorldClean) {
    (void)chaos::take_fired_log();
    chaos::arm_next_world(chaos::FaultPlan(8).kill_on_entry(0, chaos::Call::barrier));
    chaos::cancel_pending_plan();
    World::run_ranked(2, [](int) {
        EXPECT_EQ(XMPI_Barrier(XMPI_COMM_WORLD), XMPI_SUCCESS);
    });
    EXPECT_TRUE(chaos::take_fired_log().empty());
}

} // namespace
