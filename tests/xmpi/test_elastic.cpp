/// @file test_elastic.cpp
/// @brief Elastic worlds: sessions-style grow/shrink, the membership-epoch
/// state machine, epoch gating of stale communicators and in-flight
/// messages, and chaos kills in every transition window (elastic.hpp).
///
/// Test choreography note: members of an elastic world must keep calling
/// epoch_sync for transitions to complete, and a member may only stop
/// participating together with everyone else (or by leaving/failing) — so
/// the service loops below decide termination *through* the transport, with
/// a MIN-allreduce vote: every member of one allreduce instance sees the
/// same consensus and breaks on the same iteration, which is exactly the
/// pattern a real elastic service needs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

using xmpi::World;

/// One service tick: resync to the current epoch, then MIN-vote on @c vote.
/// Returns true iff the whole membership agreed to stop (consensus == 1).
/// Records the comm size of successful ticks into @c max_size.
bool vote_tick(World& world, int vote, std::atomic<int>& max_size) {
    XMPI_Comm comm = world.epoch_sync();
    int consensus = 0;
    int const err = XMPI_Allreduce(&vote, &consensus, 1, XMPI_INT, XMPI_MIN, comm);
    bool agreed = false;
    if (err == XMPI_SUCCESS) {
        int size = comm->size();
        int expected = max_size.load();
        while (size > expected && !max_size.compare_exchange_weak(expected, size)) {
        }
        agreed = consensus == 1;
    } else {
        // Mid-transition abort: the next tick resyncs. Anything else than
        // the three faces of a membership change is a real failure.
        EXPECT_TRUE(
            err == XMPI_ERR_REVOKED || err == XMPI_ERR_EPOCH || err == XMPI_ERR_PROC_FAILED)
            << "unexpected allreduce error " << err;
    }
    XMPI_Comm_free(&comm);
    return agreed;
}

/// A static member rank: ticks until the membership votes to stop.
void member_main(World& world, int rank, std::atomic<bool>& stop, std::atomic<int>& max_size) {
    world.attach_current_thread(rank);
    try {
        while (!vote_tick(world, stop.load() ? 1 : 0, max_size)) {
        }
    } catch (xmpi::RankKilled const&) {
        // Chaos victim: already marked failed.
    }
    world.detach_current_thread();
}

TEST(Elastic, GrowAdmitsJoinerIntoRunningWorld) {
    World world(2, {}, 4);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};
    std::atomic<int> joiner_rank{-1};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] { member_main(world, rank, stop, max_size); });
    }
    std::thread joiner([&] {
        int const rank = world.open_session();
        joiner_rank.store(rank);
        EXPECT_GE(world.membership_epoch(), 1u);
        // Participate until this thread has seen one full-membership tick,
        // then retire; the members observe the shrink as another epoch.
        while (true) {
            XMPI_Comm comm = world.epoch_sync();
            EXPECT_NE(comm->comm_rank_of_world_rank(rank), xmpi::UNDEFINED);
            int vote = 0;
            int consensus = 0;
            int const err = XMPI_Allreduce(&vote, &consensus, 1, XMPI_INT, XMPI_MIN, comm);
            bool const done = err == XMPI_SUCCESS && comm->size() == 3;
            if (done) {
                // Record the full membership here: the members' matching
                // call may abort with REVOKED once this thread leaves, so
                // their ticks alone cannot be relied on to have seen size 3.
                int expected = max_size.load();
                while (3 > expected && !max_size.compare_exchange_weak(expected, 3)) {
                }
            }
            XMPI_Comm_free(&comm);
            if (done) {
                break;
            }
        }
        world.leave_session();
    });

    joiner.join();
    // All joins and leaves are resolved (open_session/leave_session block
    // until their transition); now the members may agree to stop.
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    EXPECT_EQ(joiner_rank.load(), 2);    // slots are handed out in join order
    EXPECT_EQ(max_size.load(), 3);       // the world really was 3 ranks wide
    EXPECT_GE(world.membership_epoch(), 2u); // grow + shrink
    EXPECT_EQ(world.last_transition_cause(), std::string("shrink"));
}

TEST(Elastic, GrowAndShrinkRideManySessions) {
    constexpr int kJoiners = 4;
    World world(2, {}, 2 + kJoiners);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] { member_main(world, rank, stop, max_size); });
    }
    std::vector<std::thread> sessions;
    for (int i = 0; i < kJoiners; ++i) {
        // Join and leave straight away: a burst of membership churn.
        sessions.emplace_back([&] { world.run_session([](int) {}); });
    }
    for (auto& thread: sessions) {
        thread.join();
    }
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    EXPECT_GE(world.membership_epoch(), 2u);
    EXPECT_EQ(world.rank_slots(), 2 + kJoiners); // every joiner got a fresh slot
    for (int slot = 2; slot < 2 + kJoiners; ++slot) {
        EXPECT_FALSE(world.is_failed(slot));
    }
}

TEST(Elastic, StaleEpochCommIsRejectedAtTheApi) {
    World world(2, {}, 3);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            // Gate the stop vote on the grow having happened: otherwise the
            // members could agree to stop at epoch 0, before the joiner even
            // announces, and nobody would complete its admission.
            auto vote = [&] {
                return stop.load() && world.membership_epoch() >= 1 ? 1 : 0;
            };
            while (!vote_tick(world, vote(), max_size)) {
            }
            // The world moved past epoch 0: the original world communicator
            // is stale, and *every* operation class reports it as such.
            EXPECT_GE(world.membership_epoch(), 1u);
            int value = 0;
            EXPECT_EQ(
                XMPI_Send(&value, 1, XMPI_INT, 1 - rank, 0, XMPI_COMM_WORLD), XMPI_ERR_EPOCH);
            EXPECT_EQ(
                XMPI_Recv(
                    &value, 1, XMPI_INT, 1 - rank, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_ERR_EPOCH);
            int sum = 0;
            EXPECT_EQ(
                XMPI_Allreduce(&value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD),
                XMPI_ERR_EPOCH);
            world.detach_current_thread();
        });
    }
    std::thread joiner([&] {
        int const rank = world.open_session();
        (void)rank;
        // Admitted; tick along until the membership agrees to stop, then
        // dissolve with the world (no leave: the test ends here).
        while (!vote_tick(world, stop.load() ? 1 : 0, max_size)) {
        }
        world.detach_current_thread();
    });
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    joiner.join();
}

TEST(Elastic, StaleEpochMessageIsDroppedAtDelivery) {
    World world(2, {}, 3);
    std::atomic<int> stage{0};

    std::thread rank0([&] {
        world.attach_current_thread(0);
        // An eager message on the epoch-0 communicator that rank 1 never
        // receives: it sits in the transport until rank 1 drains.
        int value = 42;
        ASSERT_EQ(XMPI_Send(&value, 1, XMPI_INT, 1, 77, XMPI_COMM_WORLD), XMPI_SUCCESS);
        stage.store(1);
        // Ride the admission transition. The message above is dropped either
        // at delivery (epoch_sync's waits drain rank 1's rings) or by the
        // transition's sweep of stale unexpected messages.
        XMPI_Comm comm = XMPI_COMM_NULL;
        do {
            if (comm != XMPI_COMM_NULL) {
                XMPI_Comm_free(&comm);
            }
            ASSERT_EQ(XMPI_Epoch_sync(&comm), XMPI_SUCCESS);
        } while (comm->birth_epoch() == 0);
        XMPI_Comm_free(&comm);
        // No stage bump here: rank 1 may already have advanced to stage 3,
        // and overwriting it would strand this thread in the wait below.
        while (stage.load() < 3) {
            std::this_thread::yield();
        }
        world.detach_current_thread();
    });
    std::thread rank1([&] {
        world.attach_current_thread(1);
        while (stage.load() < 1) {
            std::this_thread::yield();
        }
        XMPI_Comm comm = XMPI_COMM_NULL;
        do {
            if (comm != XMPI_COMM_NULL) {
                XMPI_Comm_free(&comm);
            }
            ASSERT_EQ(XMPI_Epoch_sync(&comm), XMPI_SUCCESS);
        } while (comm->birth_epoch() == 0);
        // After the transition the epoch-0 message is gone instead of
        // lingering as matchable unexpected state.
        int flag = 1;
        EXPECT_EQ(
            XMPI_Iprobe(XMPI_ANY_SOURCE, XMPI_ANY_TAG, comm, &flag, XMPI_STATUS_IGNORE),
            XMPI_SUCCESS);
        EXPECT_EQ(flag, 0);
        EXPECT_GE(xmpi::profile::my_snapshot().stale_epoch_drops, 1u);
        XMPI_Comm_free(&comm);
        stage.store(3);
        world.detach_current_thread();
    });
    std::thread joiner([&] {
        while (stage.load() < 1) {
            std::this_thread::yield();
        }
        (void)world.open_session();
        while (stage.load() < 3) {
            std::this_thread::yield();
        }
        world.detach_current_thread();
    });
    rank0.join();
    rank1.join();
    joiner.join();
}

TEST(Elastic, DoubleLeaveAndOtherUsageErrors) {
    // Non-elastic worlds reject the whole surface.
    World fixed(2);
    EXPECT_FALSE(fixed.elastic_enabled());
    std::thread outsider([&] {
        EXPECT_THROW((void)fixed.open_session(), xmpi::UsageError);
    });
    outsider.join();

    World world(1, {}, 2);
    std::thread rank0([&] {
        world.attach_current_thread(0);
        EXPECT_THROW((void)fixed.open_session(), xmpi::UsageError); // already attached
        world.detach_current_thread();
    });
    rank0.join();

    // A leaver's thread is detached once leave_session returns, so a second
    // leave has no rank context: double leave cannot go unnoticed.
    std::thread leaver([&] {
        int const rank = world.open_session();
        EXPECT_EQ(rank, 1);
        world.leave_session();
        EXPECT_THROW(world.leave_session(), xmpi::UsageError);
        EXPECT_THROW((void)world.epoch_sync(), xmpi::UsageError);
    });
    std::thread rank0b([&] {
        world.attach_current_thread(0);
        // Ride the joiner's admission and departure.
        XMPI_Comm comm = XMPI_COMM_NULL;
        do {
            if (comm != XMPI_COMM_NULL) {
                XMPI_Comm_free(&comm);
            }
            ASSERT_EQ(XMPI_Epoch_sync(&comm), XMPI_SUCCESS);
        } while (world.membership_pending() || comm->size() != 1
                 || comm->birth_epoch() < 2);
        XMPI_Comm_free(&comm);
        world.detach_current_thread();
    });
    leaver.join();
    rank0b.join();

    // Capacity is a hard bound: slots are never reused, so even after the
    // leave the world is full (slot 1 is spent).
    std::thread latecomer([&] {
        EXPECT_THROW((void)world.open_session(), xmpi::UsageError);
    });
    latecomer.join();
}

TEST(Elastic, JoinRacesMemberFailure) {
    World world(2, {}, 3);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    // Rank 1 dies immediately: the join and the failure race into the
    // membership machine, which folds both into (one or two) transitions.
    std::thread doomed([&] {
        world.attach_current_thread(1);
        try {
            xmpi::inject_failure();
        } catch (xmpi::RankKilled const&) {
        }
        world.detach_current_thread();
    });
    std::thread survivor([&] {
        world.attach_current_thread(0);
        while (true) {
            XMPI_Comm comm = world.epoch_sync();
            bool const settled = comm->comm_rank_of_world_rank(1) == xmpi::UNDEFINED
                                 && comm->comm_rank_of_world_rank(2) != xmpi::UNDEFINED;
            XMPI_Comm_free(&comm);
            if (settled && stop.load()) {
                break;
            }
            std::this_thread::yield();
        }
        world.detach_current_thread();
    });
    std::thread joiner([&] {
        int const rank = world.open_session();
        EXPECT_EQ(rank, 2);
        stop.store(true);
        world.detach_current_thread();
    });
    doomed.join();
    joiner.join();
    survivor.join();
    EXPECT_TRUE(world.is_failed(1));
    EXPECT_GE(world.membership_epoch(), 1u);
    (void)max_size;
}

TEST(ElasticChaos, KillMidJoinExcludesTheDeadJoiner) {
    xmpi::chaos::take_fired_log();
    // Victim 2 is the (only) joiner; it dies right after announcing the
    // join — the transition must exclude it instead of waiting forever.
    xmpi::chaos::arm_next_world(
        xmpi::chaos::FaultPlan(7).kill_at_call(2, xmpi::chaos::Call::session_open));
    World world(2, {}, 4);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] { member_main(world, rank, stop, max_size); });
    }
    std::thread joiner([&] {
        world.run_session([](int) { FAIL() << "a killed joiner must never run its session"; });
    });
    joiner.join();
    // The dead joiner's announced transition resolves among the members.
    while (world.membership_pending()) {
        std::this_thread::yield();
    }
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    EXPECT_TRUE(world.is_failed(2));
    EXPECT_GE(world.membership_epoch(), 1u);
    EXPECT_EQ(world.last_transition_cause(), std::string("failure"));
    auto const fired = xmpi::chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 2);
}

TEST(ElasticChaos, KillALeaverMidLeave) {
    xmpi::chaos::take_fired_log();
    xmpi::chaos::arm_next_world(
        xmpi::chaos::FaultPlan(11).kill_at_call(2, xmpi::chaos::Call::session_leave));
    World world(2, {}, 4);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] { member_main(world, rank, stop, max_size); });
    }
    std::thread joiner([&] {
        // Joins fine, dies announcing the leave: the membership machine
        // folds the dead leaver into a failure transition.
        world.run_session([](int) {});
    });
    joiner.join();
    while (world.membership_pending()) {
        std::this_thread::yield();
    }
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    EXPECT_TRUE(world.is_failed(2));
    EXPECT_GE(world.membership_epoch(), 2u); // grow, then the fatal leave
    auto const fired = xmpi::chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 2);
    EXPECT_EQ(fired[0].call, xmpi::chaos::Call::session_leave);
}

TEST(ElasticChaos, KillDuringTheEpochBarrier) {
    xmpi::chaos::take_fired_log();
    // Rank 1 dies *inside* the membership rendezvous: after arriving at the
    // transition round, before it produces the next epoch. The remaining
    // participants must fold the failure into the same round.
    xmpi::chaos::arm_next_world(
        xmpi::chaos::FaultPlan(13).kill_at_hook(1, xmpi::chaos::Hook::ft_elastic_sync));
    World world(2, {}, 4);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] { member_main(world, rank, stop, max_size); });
    }
    std::thread joiner([&] {
        int const rank = world.open_session();
        EXPECT_EQ(rank, 2);
        // The surviving membership is {0, joiner}: keep ticking so rank 0's
        // consensus votes have a partner, then dissolve together.
        stop.store(true);
        while (!vote_tick(world, 1, max_size)) {
        }
        world.detach_current_thread();
    });
    joiner.join();
    for (auto& thread: members) {
        thread.join();
    }
    EXPECT_TRUE(world.is_failed(1));
    auto const fired = xmpi::chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, 1);
}

TEST(Elastic, TransitionSpansCarryEpochAndCause) {
    xmpi::profile::clear_spans();
    xmpi::profile::set_tracing_enabled(true);
    World world(2, {}, 3);
    std::atomic<bool> stop{false};
    std::atomic<int> max_size{0};

    std::vector<std::thread> members;
    for (int rank = 0; rank < 2; ++rank) {
        members.emplace_back([&, rank] { member_main(world, rank, stop, max_size); });
    }
    std::thread joiner([&] { world.run_session([](int) {}); });
    joiner.join();
    stop.store(true);
    for (auto& thread: members) {
        thread.join();
    }
    xmpi::profile::set_tracing_enabled(false);

    std::vector<xmpi::profile::Span> transitions;
    for (auto const& span: xmpi::profile::take_spans()) {
        if (std::string(span.op) == "epoch_transition") {
            transitions.push_back(span);
        }
    }
    ASSERT_GE(transitions.size(), 2u);
    EXPECT_EQ(std::string(transitions[0].algorithm), "grow");
    EXPECT_EQ(transitions[0].epoch, 1u);
    EXPECT_EQ(std::string(transitions[1].algorithm), "shrink");
    EXPECT_EQ(transitions[1].epoch, 2u);
}

} // namespace
