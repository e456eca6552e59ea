/// @file test_tuning_select.cpp
/// @brief The collective-algorithm registry: the three selection layers
/// (force, alpha/beta model, static preference) and the algorithm a
/// persistent plan captures at init.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

namespace tuning = xmpi::tuning;
using tuning::CollOp;
using xmpi::World;

/// @brief Every test leaves the process-wide selection knobs as it found
/// them: no force.
class TuningSelect : public ::testing::Test {
protected:
    void TearDown() override {
        tuning::coll().force_algorithm = nullptr;
        xmpi::profile::set_tracing_enabled(false);
    }
};

/// @brief A selection context without a network model: the static-preference
/// layer decides (the common in-process configuration).
tuning::SelectCtx ctx_of(int p, std::size_t block_bytes, bool commutative = true) {
    tuning::SelectCtx ctx;
    ctx.p = p;
    ctx.block_bytes = block_bytes;
    ctx.commutative = commutative;
    return ctx;
}

std::string pick(CollOp op, tuning::SelectCtx const& ctx) {
    return tuning::select(op, ctx).algorithm;
}

// ---------------------------------------------------------------------------
// Layer 3: the static preference matrix (no model, no force)
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, DefaultMatrixReproducesTheThresholds) {
    // alltoall: Bruck below the byte threshold at enough ranks, else pairwise.
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, 64)), "bruck");
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, tuning::bruck_alltoall_max_bytes)), "bruck");
    EXPECT_EQ(pick(CollOp::alltoall, ctx_of(8, tuning::bruck_alltoall_max_bytes + 1)), "pairwise");
    EXPECT_EQ(
        pick(CollOp::alltoall, ctx_of(tuning::bruck_alltoall_min_ranks - 1, 64)), "pairwise");

    // allgather: recursive doubling for power-of-two p and small blocks.
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(8, 1024)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(8, tuning::rd_allgather_max_bytes + 1)), "ring");
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(6, 1024)), "ring") << "non-power-of-two p";
    EXPECT_EQ(pick(CollOp::allgather, ctx_of(2, 1024)), "ring") << "doubling needs p >= 4";

    // scatter: binomial tree for small blocks at p >= 4.
    EXPECT_EQ(pick(CollOp::scatter, ctx_of(8, 512)), "binomial_tree");
    EXPECT_EQ(pick(CollOp::scatter, ctx_of(8, tuning::binomial_scatter_max_bytes + 1)), "linear");
    EXPECT_EQ(pick(CollOp::scatter, ctx_of(2, 512)), "linear");

    // Reductions: the tree/doubling algorithms need commutativity.
    EXPECT_EQ(pick(CollOp::reduce, ctx_of(8, 64)), "binomial_tree");
    EXPECT_EQ(pick(CollOp::reduce, ctx_of(8, 64, /*commutative=*/false)), "linear");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(8, 64)), "recursive_doubling");
    EXPECT_EQ(pick(CollOp::allreduce, ctx_of(8, 64, /*commutative=*/false)), "reduce_bcast");

    // Single-algorithm ops always resolve to their fallback entry.
    EXPECT_EQ(pick(CollOp::barrier, ctx_of(8, 0)), "dissemination");
    EXPECT_EQ(pick(CollOp::bcast, ctx_of(8, 64)), "binomial");
    EXPECT_EQ(pick(CollOp::gather, ctx_of(8, 64)), "linear");
    EXPECT_EQ(pick(CollOp::scan, ctx_of(8, 64)), "hillis_steele");
    EXPECT_EQ(pick(CollOp::reduce_scatter, ctx_of(8, 64)), "reduce_then_scatter");

    // No layer above fired.
    auto const selection = tuning::select(CollOp::alltoall, ctx_of(8, 64));
    EXPECT_FALSE(selection.forced);
}

TEST_F(TuningSelect, CandidatesListApplicableEntriesInPreferenceOrder) {
    auto const flat = tuning::candidates(CollOp::allgather, ctx_of(8, 1024));
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_STREQ(flat[0], "recursive_doubling");
    EXPECT_STREQ(flat[1], "ring");

    auto const noncomm = tuning::candidates(CollOp::reduce, ctx_of(8, 64, false));
    ASSERT_EQ(noncomm.size(), 1u);
    EXPECT_STREQ(noncomm[0], "linear");
}

// ---------------------------------------------------------------------------
// Layer 2: the alpha/beta model (argmin over modeled costs)
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, ModelArgminOverridesTheStaticThresholds) {
    // Pure-latency network: Bruck's log2(p) rounds beat pairwise's p-1
    // messages at any payload — including far past the static threshold.
    auto latency = ctx_of(8, 1 << 20);
    latency.model_enabled = true;
    latency.alpha = 30e-6;
    latency.beta = 0.0;
    EXPECT_EQ(pick(CollOp::alltoall, latency), "bruck");

    // Bandwidth-bound network: Bruck moves each byte log2(p)/2 times, so
    // pairwise wins for large blocks even below the static rank threshold.
    auto bandwidth = latency;
    bandwidth.beta = 1e-6;
    EXPECT_EQ(pick(CollOp::alltoall, bandwidth), "pairwise");

    // Small blocks under a realistic model: latency still dominates.
    auto small = ctx_of(8, 64);
    small.model_enabled = true;
    small.alpha = 30e-6;
    small.beta = 1e-9;
    EXPECT_EQ(pick(CollOp::alltoall, small), "bruck");
    EXPECT_EQ(pick(CollOp::allgather, small), "recursive_doubling");
}

// ---------------------------------------------------------------------------
// Layer 1: the force override
// ---------------------------------------------------------------------------

TEST_F(TuningSelect, ForceWinsWhenApplicableAndFallsThroughOtherwise) {
    tuning::coll().force_algorithm = "ring";
    auto const forced = tuning::select(CollOp::allgather, ctx_of(8, 64));
    EXPECT_STREQ(forced.algorithm, "ring") << "force overrides the rd preference";
    EXPECT_TRUE(forced.forced);

    // A force that would violate a hard constraint is ignored.
    tuning::coll().force_algorithm = "recursive_doubling";
    auto const inapplicable = tuning::select(CollOp::allgather, ctx_of(6, 64));
    EXPECT_STREQ(inapplicable.algorithm, "ring");
    EXPECT_FALSE(inapplicable.forced);
}

TEST_F(TuningSelect, PersistentPlansCaptureTheAlgorithmAtInit) {
    // The plan selects at init time; selection-knob changes afterwards must
    // not retarget an initialized plan (MPI's persistent-collective rule).
    xmpi::profile::set_tracing_enabled(true);
    tuning::coll().force_algorithm = "reduce_bcast";
    World::run_ranked(4, [&](int rank) {
        int const value = rank + 1;
        int sum = 0;
        XMPI_Request request = XMPI_REQUEST_NULL;
        ASSERT_EQ(
            XMPI_Allreduce_init(
                &value, &sum, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD, &request),
            XMPI_SUCCESS);
        XMPI_Barrier(XMPI_COMM_WORLD); // everyone initialized under the force
        if (rank == 0) {
            tuning::coll().force_algorithm = nullptr;
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        (void)xmpi::profile::take_algorithm();

        // A fresh one-shot selects the default again...
        int oneshot = 0;
        ASSERT_EQ(
            XMPI_Allreduce(&value, &oneshot, 1, XMPI_INT, XMPI_SUM, XMPI_COMM_WORLD),
            XMPI_SUCCESS);
        EXPECT_EQ(oneshot, 10);
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "recursive_doubling");

        // ... but the plan replays the algorithm captured at init.
        for (int round = 0; round < 2; ++round) {
            ASSERT_EQ(XMPI_Start(&request), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Wait(&request, XMPI_STATUS_IGNORE), XMPI_SUCCESS);
            EXPECT_EQ(sum, 10);
            EXPECT_STREQ(xmpi::profile::take_algorithm(), "reduce_bcast");
        }
        XMPI_Request_free(&request);
    });
    tuning::coll().force_algorithm = nullptr;
}

} // namespace
