/// @file test_wait.cpp
/// @brief The one wait primitive (xmpi/wait.hpp): every blocking call kind
/// parks on its rank's eventcount and is woken by the event that ends it —
/// the matching operation, or a peer's death. No wait carries a timeout, so
/// a missed notify shows up here as a hang (run these under a short ctest
/// --timeout). Also the progress-engine stall scenario: a blocked rank must
/// run the queued task a peer's executing task waits on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <ostream>
#include <thread>
#include <vector>

#include "xmpi/chaos.hpp"
#include "xmpi/progress.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using xmpi::World;
namespace chaos = xmpi::chaos;

enum class End { match, kill };

void PrintTo(End how, std::ostream* os) {
    *os << (how == End::match ? "match" : "kill");
}

/// The rank that ends the waiter's wait.
constexpr int kEnder = 1;

/// Long enough for the waiter to spend its spin and yield budgets and park.
constexpr auto kParkDelay = std::chrono::milliseconds(20);

class WaitWakePath : public ::testing::TestWithParam<End> {
protected:
    void SetUp() override { (void)chaos::take_fired_log(); }

    /// Arms the kill of the ender for End::kill: it dies at its first
    /// XMPI_Iprobe, which only end_wait() issues.
    static void arm_kill(End how) {
        if (how == End::kill) {
            chaos::arm_next_world(
                chaos::FaultPlan(12).kill_at_call(kEnder, chaos::Call::iprobe, 1));
        }
    }

    /// Runs @c body on @c p ranks with the kill armed for End::kill.
    static void run(int p, End how, std::function<void(int)> const& body) {
        arm_kill(how);
        World::run_ranked(p, body);
        EXPECT_EQ(chaos::take_fired_log().size(), how == End::kill ? 1u : 0u);
    }

    /// Called by the ender: lets the waiter park, then ends its wait by
    /// @c match or by dying.
    static void end_wait(End how, std::function<void()> const& match) {
        std::this_thread::sleep_for(kParkDelay);
        if (how == End::kill) {
            int flag = 0;
            XMPI_Iprobe(XMPI_ANY_SOURCE, XMPI_ANY_TAG, XMPI_COMM_WORLD, &flag, XMPI_STATUS_IGNORE);
            ADD_FAILURE() << "the chaos kill did not fire";
            return;
        }
        match();
    }

    /// The code a wait ended by @c how must return.
    static int expected(End how) {
        return how == End::match ? XMPI_SUCCESS : XMPI_ERR_PROC_FAILED;
    }
};

TEST_P(WaitWakePath, BlockingProbe) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        if (rank == kEnder) {
            end_wait(how, [] {
                int const value = 7;
                XMPI_Send(&value, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD);
            });
            return;
        }
        XMPI_Status status;
        EXPECT_EQ(XMPI_Probe(kEnder, 3, XMPI_COMM_WORLD, &status), expected(how));
        if (how == End::match) {
            int value = 0;
            XMPI_Recv(&value, 1, XMPI_INT, kEnder, 3, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(value, 7);
        }
    });
}

TEST_P(WaitWakePath, Receive) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        if (rank == kEnder) {
            end_wait(how, [] {
                int const value = 7;
                XMPI_Send(&value, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD);
            });
            return;
        }
        int value = 0;
        EXPECT_EQ(
            XMPI_Recv(&value, 1, XMPI_INT, kEnder, 3, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
            expected(how));
        if (how == End::match) {
            EXPECT_EQ(value, 7);
        }
    });
}

TEST_P(WaitWakePath, SynchronousSend) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        if (rank == kEnder) {
            end_wait(how, [] {
                int value = 0;
                XMPI_Recv(&value, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
                EXPECT_EQ(value, 7);
            });
            return;
        }
        int const value = 7;
        EXPECT_EQ(XMPI_Ssend(&value, 1, XMPI_INT, kEnder, 3, XMPI_COMM_WORLD), expected(how));
    });
}

TEST_P(WaitWakePath, Waitany) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        if (rank == kEnder) {
            end_wait(how, [] {
                int const value = 7;
                XMPI_Send(&value, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD);
            });
            return;
        }
        int value = 0;
        XMPI_Request requests[2] = {XMPI_REQUEST_NULL, XMPI_REQUEST_NULL};
        XMPI_Irecv(&value, 1, XMPI_INT, kEnder, 3, XMPI_COMM_WORLD, &requests[1]);
        int index = -1;
        XMPI_Status status;
        EXPECT_EQ(XMPI_Waitany(2, requests, &index, &status), expected(how));
        EXPECT_EQ(index, 1);
        if (how == End::match) {
            EXPECT_EQ(value, 7);
        }
    });
}

TEST_P(WaitWakePath, IbarrierWait) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        if (rank == kEnder) {
            end_wait(how, [] {
                XMPI_Request request = XMPI_REQUEST_NULL;
                XMPI_Ibarrier(XMPI_COMM_WORLD, &request);
                EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            });
            return;
        }
        XMPI_Request request = XMPI_REQUEST_NULL;
        XMPI_Ibarrier(XMPI_COMM_WORLD, &request);
        EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), expected(how));
    });
}

// Agree and shrink complete among the survivors: a kill ends the wait with
// success, not an error.
TEST_P(WaitWakePath, Agree) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        if (rank == kEnder) {
            end_wait(how, [] {
                int flag = 0b11;
                EXPECT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag), XMPI_SUCCESS);
                EXPECT_EQ(flag, 0b01);
            });
            return;
        }
        int flag = 0b01;
        EXPECT_EQ(XMPI_Comm_agree(XMPI_COMM_WORLD, &flag), XMPI_SUCCESS);
        EXPECT_EQ(flag, 0b01);
    });
}

TEST_P(WaitWakePath, Shrink) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        auto const shrink = [](int expected_size) {
            XMPI_Comm shrunken = XMPI_COMM_NULL;
            EXPECT_EQ(XMPI_Comm_shrink(XMPI_COMM_WORLD, &shrunken), XMPI_SUCCESS);
            int size = 0;
            XMPI_Comm_size(shrunken, &size);
            EXPECT_EQ(size, expected_size);
            XMPI_Comm_free(&shrunken);
        };
        if (rank == kEnder) {
            end_wait(how, [&] { shrink(2); });
            return;
        }
        shrink(how == End::match ? 2 : 1);
    });
}

// Rank 1 holds the exclusive lock on rank 2 while rank 0 waits for it; the
// unlock, or the holder's death (pruned from the lock records), ends the
// wait with the lock acquired.
TEST_P(WaitWakePath, WindowLock) {
    End const how = GetParam();
    std::atomic<bool> held{false};
    run(3, how, [how, &held](int rank) {
        int* base = nullptr;
        XMPI_Win win = XMPI_WIN_NULL;
        ASSERT_EQ(
            XMPI_Win_allocate(sizeof(int), sizeof(int), XMPI_COMM_WORLD, &base, &win),
            XMPI_SUCCESS);
        if (rank == kEnder) {
            ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 2, 0, win), XMPI_SUCCESS);
            held.store(true);
            end_wait(how, [&] { EXPECT_EQ(XMPI_Win_unlock(2, win), XMPI_SUCCESS); });
        } else if (rank == 0) {
            while (!held.load()) {
                std::this_thread::yield();
            }
            EXPECT_EQ(XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 2, 0, win), XMPI_SUCCESS);
            EXPECT_EQ(XMPI_Win_unlock(2, win), XMPI_SUCCESS);
        }
        EXPECT_EQ(XMPI_Win_free(&win), expected(how));
    });
}

// An engine task's wait: rank 0's ibcast from root kEnder parks until the
// root contributes or dies.
TEST_P(WaitWakePath, EngineTaskWait) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        int value = rank == kEnder ? 7 : 0;
        if (rank == kEnder) {
            end_wait(how, [&] {
                XMPI_Request request = XMPI_REQUEST_NULL;
                XMPI_Ibcast(&value, 1, XMPI_INT, kEnder, XMPI_COMM_WORLD, &request);
                EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            });
            return;
        }
        XMPI_Request request = XMPI_REQUEST_NULL;
        XMPI_Ibcast(&value, 1, XMPI_INT, kEnder, XMPI_COMM_WORLD, &request);
        EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), expected(how));
        if (how == End::match) {
            EXPECT_EQ(value, 7);
        }
    });
}

// A partitioned send waits for its last partition; a producer thread marks
// it ready once the receiver posted (match) or died (kill). The install of
// the inner send ends the wait; the send then reports the receiver's fate.
TEST_P(WaitWakePath, PartitionedWait) {
    End const how = GetParam();
    run(2, how, [how](int rank) {
        std::vector<int> buffer(4, rank == 0 ? 7 : 0);
        if (rank == kEnder) {
            end_wait(how, [&] {
                XMPI_Request request = XMPI_REQUEST_NULL;
                XMPI_Precv_init(buffer.data(), 2, 2, XMPI_INT, 0, 3, XMPI_COMM_WORLD, &request);
                XMPI_Start(&request);
                EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
                EXPECT_EQ(buffer, std::vector<int>(4, 7));
                XMPI_Request_free(&request);
            });
            return;
        }
        XMPI_Request request = XMPI_REQUEST_NULL;
        XMPI_Psend_init(buffer.data(), 2, 2, XMPI_INT, kEnder, 3, XMPI_COMM_WORLD, &request);
        XMPI_Start(&request);
        World& world = xmpi::detail::current_world();
        std::thread producer([&] {
            std::this_thread::sleep_for(2 * kParkDelay);
            while (how == End::kill && !world.is_failed(kEnder)) {
                std::this_thread::yield();
            }
            XMPI_Pready(0, request);
            XMPI_Pready(1, request);
        });
        EXPECT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), expected(how));
        producer.join();
        XMPI_Request_free(&request);
    });
}

// Elastic membership rendezvous: a joiner requests a transition; rank 0
// waits in epoch_sync for rank 1, which arrives (match) or dies (kill) —
// either way the transition commits and rank 0 leaves with the new epoch.
TEST_P(WaitWakePath, EpochSync) {
    End const how = GetParam();
    arm_kill(how);
    World world(2, {}, 3);
    std::thread joiner([&] {
        (void)world.open_session();
        world.detach_current_thread();
    });
    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            while (!world.membership_pending()) {
                std::this_thread::yield();
            }
            try {
                XMPI_Comm comm = XMPI_COMM_NULL;
                if (rank == kEnder) {
                    end_wait(how, [&] { EXPECT_EQ(XMPI_Epoch_sync(&comm), XMPI_SUCCESS); });
                } else {
                    EXPECT_EQ(XMPI_Epoch_sync(&comm), XMPI_SUCCESS);
                }
                if (comm != XMPI_COMM_NULL) {
                    EXPECT_GE(comm->birth_epoch(), 1u);
                    XMPI_Comm_free(&comm);
                }
            } catch (xmpi::RankKilled const&) {
            }
            world.detach_current_thread();
        });
    }
    for (auto& member: members) {
        member.join();
    }
    joiner.join();
    EXPECT_EQ(world.is_failed(kEnder), how == End::kill);
    EXPECT_EQ(chaos::take_fired_log().size(), how == End::kill ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EndedBy, WaitWakePath, ::testing::Values(End::match, End::kill),
    [](auto const& info) { return info.param == End::match ? "Match" : "Kill"; });

// The progress-engine stall scenario: the single worker is pinned, the
// bcast non-root runs its own bcast task and blocks in it waiting for the
// root, and the root blocks in a receive from that non-root while its own
// bcast task sits queued. The root must run its queued task before it parks.
TEST(Wait, BlockedBcastRootRunsItsQueuedTask) {
    xmpi::progress::configure({.threads = 1, .queue_capacity = 1024});
    World::run_ranked(2, [](int rank) {
        XMPI_Comm blocker_comm = XMPI_COMM_NULL;
        XMPI_Comm bcast_comm = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &blocker_comm), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &bcast_comm), XMPI_SUCCESS);

        // Pin the worker: rank 1's iallreduce cannot complete until rank 0
        // joins it at the very end.
        int const blocker_value = rank + 1;
        int blocker_sum = 0;
        XMPI_Request blocker = XMPI_REQUEST_NULL;
        if (rank == 1) {
            ASSERT_EQ(
                XMPI_Iallreduce(
                    &blocker_value, &blocker_sum, 1, XMPI_INT, XMPI_SUM, blocker_comm, &blocker),
                XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);

        int value = rank == 0 ? 42 : 0;
        XMPI_Request bcast = XMPI_REQUEST_NULL;
        ASSERT_EQ(XMPI_Ibcast(&value, 1, XMPI_INT, 0, bcast_comm, &bcast), XMPI_SUCCESS);
        if (rank == 1) {
            // Runs its queued bcast task inline and blocks in it until the
            // root's task has run.
            EXPECT_EQ(XMPI_Wait(&bcast, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(value, 42);
            XMPI_Send(&value, 1, XMPI_INT, 0, 9, XMPI_COMM_WORLD);
        } else {
            int echo = 0;
            EXPECT_EQ(
                XMPI_Recv(&echo, 1, XMPI_INT, 1, 9, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_SUCCESS);
            EXPECT_EQ(echo, 42);
            EXPECT_EQ(XMPI_Wait(&bcast, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_GE(xmpi::profile::my_snapshot().engine_caller_steals, 1u);
            EXPECT_EQ(XMPI_Iallreduce(
                          &blocker_value, &blocker_sum, 1, XMPI_INT, XMPI_SUM, blocker_comm,
                          &blocker),
                      XMPI_SUCCESS);
        }
        EXPECT_EQ(XMPI_Wait(&blocker, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
        EXPECT_EQ(blocker_sum, 3);
        XMPI_Comm_free(&blocker_comm);
        XMPI_Comm_free(&bcast_comm);
    });
    xmpi::progress::configure({});
}

// Stall scenario across two communicators whose initiation order differs
// between the ranks (legal: MPI orders collectives per communicator only).
// The single worker is pinned in rank 0's bcast on comm x, waiting for the
// root rank 1, and rank 0 parks in its wait. Rank 1 blocks in a receive
// with its bcast on comm y queued ahead of its bcast on comm x; only the
// younger one is awaited. Rank 1 must run both, oldest first, before it
// parks.
TEST(Wait, BlockedRankRunsOlderTasksUpToTheAwaitedOne) {
    xmpi::progress::configure({.threads = 1, .queue_capacity = 1024});
    World::run_ranked(2, [](int rank) {
        XMPI_Comm x = XMPI_COMM_NULL;
        XMPI_Comm y = XMPI_COMM_NULL;
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &x), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Comm_dup(XMPI_COMM_WORLD, &y), XMPI_SUCCESS);

        int x_value = rank == 1 ? 11 : 0;
        int y_value = rank == 0 ? 22 : 0;
        XMPI_Request x_bcast = XMPI_REQUEST_NULL;
        XMPI_Request y_bcast = XMPI_REQUEST_NULL;
        if (rank == 0) {
            ASSERT_EQ(XMPI_Ibcast(&x_value, 1, XMPI_INT, 1, x, &x_bcast), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Ibcast(&y_value, 1, XMPI_INT, 0, y, &y_bcast), XMPI_SUCCESS);
            EXPECT_EQ(XMPI_Wait(&y_bcast, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            // Let the worker claim the bcast on x before rank 1 proceeds.
            std::this_thread::sleep_for(kParkDelay);
            XMPI_Barrier(XMPI_COMM_WORLD);
            EXPECT_EQ(XMPI_Wait(&x_bcast, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(x_value, 11);
            XMPI_Send(&x_value, 1, XMPI_INT, 1, 9, XMPI_COMM_WORLD);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            ASSERT_EQ(XMPI_Ibcast(&y_value, 1, XMPI_INT, 0, y, &y_bcast), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Ibcast(&x_value, 1, XMPI_INT, 1, x, &x_bcast), XMPI_SUCCESS);
            int echo = 0;
            EXPECT_EQ(
                XMPI_Recv(&echo, 1, XMPI_INT, 0, 9, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_SUCCESS);
            EXPECT_EQ(echo, 11);
            EXPECT_EQ(XMPI_Wait(&y_bcast, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(XMPI_Wait(&x_bcast, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(y_value, 22);
        }
        XMPI_Comm_free(&x);
        XMPI_Comm_free(&y);
    });
    xmpi::progress::configure({});
}

} // namespace
