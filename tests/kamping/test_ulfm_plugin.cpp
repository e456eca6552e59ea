/// @file test_ulfm_plugin.cpp
/// @brief The ULFM plugin (paper, Section V, Fig. 12): recovery with
/// exceptions, shrink_and_retry and its agreed outcome, agree over
/// survivors. A suite of its own so the chaos soak can repeat it by label.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "kamping/plugin/plugins.hpp"
#include "xmpi/chaos.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using namespace kamping;
using xmpi::World;

TEST(Plugins, UlfmRecoveryWithExceptions) {
    // The paper's Fig. 12, verbatim pattern.
    World::run_ranked(4, [](int rank) {
        if (rank == 2) {
            xmpi::inject_failure();
        }
        FullCommunicator comm;
        int sum = 0;
        for (int attempt = 0; attempt < 100; ++attempt) {
            try {
                sum = comm.allreduce_single(send_buf(1), op(std::plus<>{}));
                break;
            } catch (MpiFailureDetected const&) {
                if (!comm.is_revoked()) {
                    comm.revoke();
                }
                comm = comm.shrink();
            } catch (MpiCommRevoked const&) {
                comm = comm.shrink();
            }
        }
        EXPECT_EQ(sum, 3);
    });
}

TEST(Plugins, UlfmShrinkAndRetryNonRootedCollective) {
    // The Fig. 12 recovery loop packaged as one call: body re-runs on the
    // shrunken communicator until it succeeds.
    World::run_ranked(4, [](int rank) {
        if (rank == 2) {
            xmpi::inject_failure();
        }
        FullCommunicator comm;
        int const sum = comm.shrink_and_retry([](FullCommunicator& c) {
            return c.allreduce_single(send_buf(1), op(std::plus<>{}));
        });
        EXPECT_EQ(sum, 3);
        EXPECT_EQ(comm.size_signed(), 3) << "the helper swapped in the survivor communicator";
    });
}

TEST(Plugins, UlfmShrinkAndRetryRootedCollective) {
    World::run_ranked(4, [](int rank) {
        if (rank == 3) {
            xmpi::inject_failure();
        }
        FullCommunicator comm;
        // Root is re-derived from the current communicator inside the body,
        // so the retry works even though ranks shift after the shrink.
        auto const data = comm.shrink_and_retry([](FullCommunicator& c) {
            std::vector<int> payload;
            if (c.rank() == 0) {
                payload = {5, 6, 7};
            }
            return c.bcast(send_recv_buf(std::move(payload)), root(0));
        });
        EXPECT_EQ(data, (std::vector<int>{5, 6, 7}));
    });
}

// Partial success, forced on every run: the root's first bcast attempt
// completes (its sends are eager), then rank 3 dies entering the bcast, and
// ranks 1 and 2 enter only after that death and fail. Returning on local
// success would leave the root gone while 1 and 2 wait for it in shrink;
// the agreed outcome makes every survivor recover and retry instead.
TEST(Plugins, UlfmShrinkAndRetryAgreesWhenOnlyTheRootSucceeded) {
    constexpr int victim = 3;
    (void)xmpi::chaos::take_fired_log();
    xmpi::chaos::arm_next_world(
        xmpi::chaos::FaultPlan(5).kill_at_call(victim, xmpi::chaos::Call::bcast, 1));
    std::atomic<bool> root_done{false};
    World::run_ranked(4, [&](int rank) {
        FullCommunicator comm;
        xmpi::World& world = xmpi::detail::current_world();
        int attempts = 0;
        auto const data = comm.shrink_and_retry([&](FullCommunicator& c) {
            if (++attempts == 1) {
                if (rank == victim) {
                    while (!root_done.load()) {
                        std::this_thread::yield();
                    }
                } else if (rank != 0) {
                    while (!world.is_failed(victim)) {
                        std::this_thread::yield();
                    }
                }
            }
            std::vector<int> payload;
            if (c.rank() == 0) {
                payload = {5, 6, 7};
            }
            auto result = c.bcast(send_recv_buf(std::move(payload)), root(0));
            if (attempts == 1 && rank == 0) {
                root_done.store(true);
            }
            return result;
        });
        EXPECT_EQ(data, (std::vector<int>{5, 6, 7}));
        EXPECT_EQ(attempts, 2) << "rank " << rank << " returned the first attempt alone";
        EXPECT_EQ(comm.size_signed(), 3);
    });
    EXPECT_EQ(xmpi::chaos::take_fired_log().size(), 1u);
}

TEST(Plugins, UlfmShrinkAndRetryExhaustsAttempts) {
    World::run(2, [] {
        FullCommunicator comm;
        int body_runs = 0;
        try {
            comm.shrink_and_retry(
                [&](FullCommunicator&) -> int {
                    ++body_runs;
                    throw MpiFailureDetected("synthetic");
                },
                /*max_attempts=*/2);
            FAIL() << "expected MpiError after exhausting attempts";
        } catch (MpiError const& error) {
            EXPECT_EQ(error.error_code(), XMPI_ERR_OTHER);
        }
        EXPECT_EQ(body_runs, 2);
    });
}

TEST(Plugins, UlfmAgreeOverSurvivors) {
    World::run_ranked(3, [](int rank) {
        if (rank == 0) {
            xmpi::inject_failure();
        }
        FullCommunicator comm;
        int const agreed = comm.agree(rank == 1 ? 0b0110 : 0b0011);
        EXPECT_EQ(agreed, 0b0010);
    });
}

} // namespace
