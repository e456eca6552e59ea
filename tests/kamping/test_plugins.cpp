/// @file test_plugins.cpp
/// @brief The shipped plugins (paper, Section V): sparse all-to-all (NBX),
/// grid all-to-all, reproducible reduce, sorter. The ULFM plugin has its own
/// suite (test_ulfm_plugin.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "kamping/plugin/plugins.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using namespace kamping;
using xmpi::World;

class PluginWorldSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(
    WorldSizes, PluginWorldSizes, ::testing::Values(1, 2, 3, 4, 5, 8, 9, 12),
    [](auto const& info) { return "p" + std::to_string(info.param); });

TEST_P(PluginWorldSizes, SparseAlltoallRing) {
    World::run(GetParam(), [] {
        FullCommunicator comm;
        int const p = comm.size_signed();
        int const next = (comm.rank() + 1) % p;
        std::unordered_map<int, std::vector<int>> messages;
        messages[next] = {comm.rank(), comm.rank() * 2};
        auto received = comm.alltoallv_sparse(messages);
        int const prev = (comm.rank() - 1 + p) % p;
        ASSERT_EQ(received.size(), 1u);
        EXPECT_EQ(received.at(prev), (std::vector<int>{prev, prev * 2}));
    });
}

TEST_P(PluginWorldSizes, SparseAlltoallEmptyPattern) {
    World::run(GetParam(), [] {
        FullCommunicator comm;
        std::unordered_map<int, std::vector<int>> const nothing;
        auto received = comm.alltoallv_sparse(nothing);
        EXPECT_TRUE(received.empty());
    });
}

TEST_P(PluginWorldSizes, SparseAlltoallBackToBackRounds) {
    World::run(GetParam(), [] {
        FullCommunicator comm;
        int const p = comm.size_signed();
        for (int round = 0; round < 5; ++round) {
            std::unordered_map<int, std::vector<int>> messages;
            // Round-dependent pattern: rank r sends to (r + round) % p.
            int const target = (comm.rank() + round) % p;
            messages[target] = {round * 100 + comm.rank()};
            auto received = comm.alltoallv_sparse(messages);
            int const expected_source = (comm.rank() - round % p + p) % p;
            ASSERT_EQ(received.size(), 1u) << "round " << round;
            EXPECT_EQ(
                received.at(expected_source),
                (std::vector<int>{round * 100 + expected_source}));
        }
    });
}

TEST(Plugins, SparseAlltoallSendsOnlyToDestinations) {
    World::run(8, [] {
        FullCommunicator comm;
        comm.barrier();
        xmpi::profile::reset_mine();
        std::unordered_map<int, std::vector<int>> messages;
        messages[(comm.rank() + 1) % 8] = {1};
        (void)comm.alltoallv_sparse(messages);
        auto const snapshot = xmpi::profile::my_snapshot();
        // One payload message per destination; no Theta(p) fan-out.
        EXPECT_EQ(snapshot.messages_sent, 1u);
        EXPECT_EQ(snapshot[xmpi::profile::Call::alltoallv], 0u);
        comm.barrier();
    });
}

TEST_P(PluginWorldSizes, GridAlltoallMatchesDirectAlltoallv) {
    World::run(GetParam(), [] {
        FullCommunicator comm;
        int const p = comm.size_signed();
        int const r = comm.rank();
        // Rank r sends (r + d) % 3 elements of value r*1000+d to rank d.
        std::vector<int> counts(static_cast<std::size_t>(p));
        std::vector<int> data;
        for (int d = 0; d < p; ++d) {
            counts[static_cast<std::size_t>(d)] = (r + d) % 3;
            data.insert(data.end(), static_cast<std::size_t>((r + d) % 3), r * 1000 + d);
        }
        auto direct = comm.alltoallv(send_buf(data), send_counts(counts));
        auto grid = comm.alltoallv_grid_flat(data, counts);
        std::sort(direct.begin(), direct.end());
        std::sort(grid.begin(), grid.end());
        EXPECT_EQ(grid, direct);
    });
}

TEST_P(PluginWorldSizes, GridAlltoallAttributesSources) {
    World::run(GetParam(), [] {
        FullCommunicator comm;
        int const p = comm.size_signed();
        std::vector<int> counts(static_cast<std::size_t>(p), 1);
        std::vector<int> data(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d) {
            data[static_cast<std::size_t>(d)] = comm.rank() * 100 + d;
        }
        auto messages = comm.alltoallv_grid(data, counts);
        ASSERT_EQ(messages.size(), static_cast<std::size_t>(p));
        std::vector<bool> seen(static_cast<std::size_t>(p), false);
        for (auto const& message: messages) {
            ASSERT_EQ(message.payload.size(), 1u);
            EXPECT_EQ(message.payload.front(), message.source * 100 + comm.rank());
            seen[static_cast<std::size_t>(message.source)] = true;
        }
        EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
    });
}

TEST(Plugins, GridAlltoallUsesFewStartups) {
    // The point of grid routing: O(sqrt p) message start-ups per phase
    // instead of Theta(p) (paper, Section V-A). Verified with the traffic
    // counters, independent of timing.
    constexpr int kWorldSize = 16;
    World::run(kWorldSize, [] {
        FullCommunicator comm;
        comm.barrier();
        xmpi::profile::reset_mine();
        std::vector<int> counts(kWorldSize, 1);
        std::vector<int> data(kWorldSize, comm.rank());
        (void)comm.alltoallv_grid_flat(data, counts);
        auto const grid_messages = xmpi::profile::my_snapshot().messages_sent;
        // Each phase sends to at most sqrt(p) peers, sizes + payloads:
        // <= 2 phases * sqrt(p) * 2 messages = 4 sqrt(p) = 16 << direct p2p.
        EXPECT_LE(grid_messages, 4u * 4u);

        xmpi::profile::reset_mine();
        (void)comm.alltoallv(send_buf(data), send_counts(counts), recv_counts(counts));
        auto const direct_messages = xmpi::profile::my_snapshot().messages_sent;
        EXPECT_EQ(direct_messages, kWorldSize - 1u);
        comm.barrier();
    });
}

TEST_P(PluginWorldSizes, ReproducibleReduceIsIdenticalAcrossWorldSizes) {
    // The headline property (paper, Section V-C): the sum of a fixed global
    // array must be bit-identical for every processor count.
    constexpr std::size_t kTotal = 1000;
    std::vector<float> global_values(kTotal);
    std::mt19937 gen(42);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (auto& value: global_values) {
        value = dist(gen);
    }

    static float reference = 0.0f;
    static bool have_reference = false;
    // Compute the p = 1 result once as the reference.
    World::run(1, [&] {
        FullCommunicator comm;
        float const result = comm.reproducible_reduce(global_values);
        if (!have_reference) {
            reference = result;
            have_reference = true;
        }
    });

    int const p = GetParam();
    World::run_ranked(p, [&](int rank) {
        FullCommunicator comm;
        // Contiguous block distribution.
        std::size_t const chunk = (kTotal + static_cast<std::size_t>(p) - 1)
                                  / static_cast<std::size_t>(p);
        std::size_t const begin = std::min(kTotal, static_cast<std::size_t>(rank) * chunk);
        std::size_t const end = std::min(kTotal, begin + chunk);
        std::vector<float> const block(
            global_values.begin() + static_cast<std::ptrdiff_t>(begin),
            global_values.begin() + static_cast<std::ptrdiff_t>(end));
        float const result = comm.reproducible_reduce(block);
        EXPECT_EQ(result, reference) << "bitwise difference at p=" << p;
    });
}

TEST(Plugins, ReproducibleReduceDiffersFromNaiveTreeAcrossP) {
    // Sanity check of the premise: the *plain* allreduce is NOT reproducible
    // across p on this input (otherwise the plugin would be pointless).
    constexpr std::size_t kTotal = 1 << 12;
    std::vector<float> global_values(kTotal);
    std::mt19937 gen(7);
    std::uniform_real_distribution<float> dist(0.0f, 1.0f);
    for (auto& value: global_values) {
        value = dist(gen) * (1.0f + 1e-7f);
    }

    auto naive_sum_at = [&](int p) {
        static float result;
        World::run_ranked(p, [&](int rank) {
            FullCommunicator comm;
            std::size_t const chunk = kTotal / static_cast<std::size_t>(p);
            float local = 0.0f;
            for (std::size_t i = static_cast<std::size_t>(rank) * chunk;
                 i < (static_cast<std::size_t>(rank) + 1) * chunk; ++i) {
                local += global_values[i];
            }
            float const total =
                comm.allreduce_single(send_buf(local), op(std::plus<>{}));
            if (rank == 0) {
                result = total;
            }
        });
        return result;
    };
    // Not asserted as a hard inequality (it could coincide), but report it;
    // for this input and these p values the sums differ in practice.
    float const at1 = naive_sum_at(1);
    float const at3 = naive_sum_at(3);
    EXPECT_NE(at1, at3) << "naive reduction happened to be reproducible on this input";
}

TEST_P(PluginWorldSizes, SorterProducesGloballySortedSequence) {
    World::run_ranked(GetParam(), [](int rank) {
        FullCommunicator comm;
        std::mt19937_64 gen(static_cast<std::uint64_t>(rank) + 1);
        std::uniform_int_distribution<long> dist(0, 1000000);
        std::vector<long> data(500);
        for (auto& value: data) {
            value = dist(gen);
        }
        long const global_count = comm.allreduce_single(
            send_buf(static_cast<long>(data.size())), op(std::plus<>{}));

        comm.sort(data);

        EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
        // Global order: my maximum <= successor's minimum. Exchange border
        // elements with neighbours.
        long const my_min = data.empty() ? std::numeric_limits<long>::max() : data.front();
        auto const all_mins = comm.allgatherv(send_buf({my_min}));
        long const my_max = data.empty() ? std::numeric_limits<long>::min() : data.back();
        for (int r = comm.rank() + 1; r < comm.size_signed(); ++r) {
            if (all_mins[static_cast<std::size_t>(r)] != std::numeric_limits<long>::max()) {
                EXPECT_LE(my_max, all_mins[static_cast<std::size_t>(r)]);
            }
        }
        // No elements lost.
        long const total_after = comm.allreduce_single(
            send_buf(static_cast<long>(data.size())), op(std::plus<>{}));
        EXPECT_EQ(total_after, global_count);
    });
}

} // namespace

namespace {

class HyperGridSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, HyperGridSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Values(3, 5, 8, 12, 27)),
    [](auto const& info) {
        return "d" + std::to_string(std::get<0>(info.param)) + "_p"
               + std::to_string(std::get<1>(info.param));
    });

TEST_P(HyperGridSweep, HypergridMatchesDirectAlltoallv) {
    // The d-dimensional generalization must deliver exactly what a direct
    // alltoallv delivers, for any dimension count and (incomplete) grid.
    auto const [dimensions, p] = GetParam();
    World::run(p, [&, dimensions = dimensions, p = p] {
        FullCommunicator comm;
        int const r = comm.rank();
        std::vector<int> counts(static_cast<std::size_t>(p));
        std::vector<int> data;
        for (int d = 0; d < p; ++d) {
            counts[static_cast<std::size_t>(d)] = (r + d) % 3;
            data.insert(data.end(), static_cast<std::size_t>((r + d) % 3), r * 1000 + d);
        }
        auto direct = comm.alltoallv(send_buf(data), send_counts(counts));
        auto messages = comm.alltoallv_hypergrid(data, counts, dimensions);
        std::vector<int> routed;
        for (auto const& message: messages) {
            EXPECT_EQ(
                message.payload,
                std::vector<int>(
                    static_cast<std::size_t>((message.source + comm.rank()) % 3),
                    message.source * 1000 + comm.rank()));
            routed.insert(routed.end(), message.payload.begin(), message.payload.end());
        }
        std::sort(direct.begin(), direct.end());
        std::sort(routed.begin(), routed.end());
        EXPECT_EQ(routed, direct);
    });
}

TEST(Plugins, HypergridReducesStartupsWithDimension) {
    // d = 3 on 27 ranks: <= 3 * 3 payload messages per rank per round vs 26
    // direct ones. Message counters make this testable without timing.
    World::run(27, [] {
        FullCommunicator comm;
        comm.barrier();
        xmpi::profile::reset_mine();
        std::vector<int> const counts(27, 1);
        std::vector<int> data(27, comm.rank());
        (void)comm.alltoallv_hypergrid(data, counts, 3);
        auto const hyper_messages = xmpi::profile::my_snapshot().messages_sent;
        // 3 hops x (<= side - 1 = 2 issends + NBX overhead); far below 26.
        EXPECT_LE(hyper_messages, 12u);
        comm.barrier();
    });
}

} // namespace
