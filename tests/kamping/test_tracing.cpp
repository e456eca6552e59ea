/// @file test_tracing.cpp
/// @brief The cross-layer tracing seam: spans recorded by the call plan
/// (kamping/pipeline.hpp) into xmpi::profile's span storage. Covers the
/// off-by-default contract, the per-span payload (bytes in/out, the
/// count-exchange flag, the xmpi algorithm choice), the JSON dump hook, and
/// enable/disable toggling concurrent with recording ranks (the tsan
/// surface of the seam).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "kamping/kamping.hpp"
#include "xmpi/xmpi.hpp"

namespace {

using namespace kamping;
using xmpi::World;

/// RAII guard: every test leaves tracing disabled and the span log empty,
/// whatever happens — the log is process-global state shared by all tests.
struct TracingReset {
    ~TracingReset() {
        kamping::tracing::disable();
        xmpi::profile::clear_spans();
    }
};

std::vector<xmpi::profile::Span> spans_for(
    std::vector<xmpi::profile::Span> const& spans, char const* op) {
    std::vector<xmpi::profile::Span> matching;
    for (auto const& span: spans) {
        if (std::string(span.op) == op) {
            matching.push_back(span);
        }
    }
    return matching;
}

TEST(Tracing, DisabledByDefaultRecordsNothing) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    EXPECT_FALSE(kamping::tracing::enabled());
    World::run(4, [] {
        Communicator comm;
        std::vector<int> const v(2, comm.rank());
        auto global = comm.allgatherv(send_buf(v));
        EXPECT_EQ(global.size(), 2 * comm.size());
    });
    EXPECT_TRUE(xmpi::profile::take_spans().empty());
}

TEST(Tracing, SpanPerOpWithBytesAndCountExchangeFlag) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    kamping::tracing::enable();
    constexpr int p = 4;
    World::run(p, [] {
        Communicator comm;
        std::vector<int> const v(2, comm.rank());
        // Omitted counts: the span must carry the count-exchange flag.
        comm.allgatherv(send_buf(v));
        // Provided counts: same op, no count exchange.
        std::vector<int> const counts(comm.size(), 2);
        comm.alltoallv(
            send_buf(std::vector<int>(comm.size(), comm.rank())),
            send_counts(std::vector<int>(comm.size(), 1)),
            recv_counts(std::vector<int>(comm.size(), 1)));
    });
    kamping::tracing::disable();

    auto const spans = xmpi::profile::take_spans();
    auto const allgatherv_spans = spans_for(spans, "allgatherv");
    ASSERT_EQ(allgatherv_spans.size(), static_cast<std::size_t>(p));
    for (auto const& span: allgatherv_spans) {
        EXPECT_TRUE(span.count_exchange) << "omitted counts must be flagged";
        EXPECT_EQ(span.bytes_in, 2 * sizeof(int));
        EXPECT_EQ(span.bytes_out, 2 * p * sizeof(int));
        EXPECT_GE(span.duration_s, 0.0);
        EXPECT_GE(span.world_rank, 0);
        EXPECT_LT(span.world_rank, p);
    }
    auto const alltoallv_spans = spans_for(spans, "alltoallv");
    ASSERT_EQ(alltoallv_spans.size(), static_cast<std::size_t>(p));
    for (auto const& span: alltoallv_spans) {
        EXPECT_FALSE(span.count_exchange) << "provided counts must not be flagged";
        EXPECT_EQ(span.bytes_in, p * sizeof(int));
        EXPECT_EQ(span.bytes_out, p * sizeof(int));
    }
}

TEST(Tracing, RecordsChosenXmpiAlgorithm) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    kamping::tracing::enable();
    // p = 8 with 4-byte blocks sits squarely in the Bruck regime of the
    // xmpi alltoall tuning (p >= 8, block <= 2048 bytes, no network model).
    World::run(8, [] {
        Communicator comm;
        std::vector<int> const v(comm.size(), comm.rank());
        comm.alltoall(send_buf(v));
    });
    kamping::tracing::disable();

    auto const spans = spans_for(xmpi::profile::take_spans(), "alltoall");
    ASSERT_EQ(spans.size(), 8u);
    for (auto const& span: spans) {
        EXPECT_EQ(std::string(span.algorithm), "bruck");
    }
}

TEST(Tracing, JsonDumpContainsSpanFields) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    kamping::tracing::enable();
    World::run(2, [] {
        Communicator comm;
        std::vector<int> const v(1, comm.rank());
        comm.allgatherv(send_buf(v));
    });
    kamping::tracing::disable();
    // A sub-microsecond span must export its duration, not a rounded zero.
    xmpi::profile::Span short_span;
    short_span.op = "short_span";
    short_span.duration_s = 2.5e-7;
    xmpi::profile::record_span(short_span);

    std::string const json = xmpi::profile::spans_json();
    EXPECT_NE(json.find("\"op\": \"allgatherv\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"count_exchange\": true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"bytes_in\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"algorithm\""), std::string::npos) << json;
    std::size_t const short_at = json.find("\"op\": \"short_span\"");
    ASSERT_NE(short_at, std::string::npos) << json;
    std::string const key = "\"duration_s\": ";
    std::size_t const value_at = json.find(key, short_at) + key.size();
    EXPECT_EQ(std::strtod(json.c_str() + value_at, nullptr), 2.5e-7) << json;
    // The dump hook must not drain the log.
    EXPECT_EQ(xmpi::profile::take_spans().size(), 3u);
}

TEST(Tracing, EngineSpansCarryQueueWaitTime) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    kamping::tracing::enable();
    World::run(2, [] {
        Communicator comm;
        std::vector<int> data{static_cast<int>(comm.rank()) + 1};
        auto pending = comm.iallreduce(send_recv_buf(std::move(data)), op(std::plus<>{}));
        data = pending.wait();
        EXPECT_EQ(data.front(), 3);
    });
    kamping::tracing::disable();

    // Two spans per rank: the call plan's wrapper span (queue_s stays 0 —
    // it covers the initiating call itself) plus the progress engine's
    // execution span, tagged with the time the task spent queued.
    EXPECT_NE(xmpi::profile::spans_json().find("\"queue_s\":"), std::string::npos);
    auto const spans = xmpi::profile::take_spans();
    auto const matching = spans_for(spans, "iallreduce");
    EXPECT_EQ(matching.size(), 4u);
    for (auto const& span: matching) {
        EXPECT_GE(span.queue_s, 0.0);
    }
}

TEST(Tracing, P2pSpans) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    kamping::tracing::enable();
    World::run(2, [] {
        Communicator comm;
        if (comm.rank() == 0) {
            comm.send(send_buf(std::vector<int>{1, 2, 3}), destination(1));
        } else {
            auto message = comm.recv<int>(source(0));
            EXPECT_EQ(message.size(), 3u);
        }
    });
    kamping::tracing::disable();

    auto const spans = xmpi::profile::take_spans();
    auto const send_spans = spans_for(spans, "send");
    ASSERT_EQ(send_spans.size(), 1u);
    EXPECT_EQ(send_spans.front().bytes_in, 3 * sizeof(int));
    auto const recv_spans = spans_for(spans, "recv");
    ASSERT_EQ(recv_spans.size(), 1u);
    EXPECT_TRUE(recv_spans.front().count_exchange)
        << "recv without a count probes for the message size";
    EXPECT_EQ(recv_spans.front().bytes_out, 3 * sizeof(int));
}

/// One rank toggles tracing while the others hammer collectives: the
/// latched-at-construction contract says every recorded span is complete
/// (op set, duration non-negative) and nothing crashes or races — run
/// under the tsan preset via the kamping_pipeline label.
TEST(Tracing, ToggleConcurrentWithRecordingRanks) {
    TracingReset guard;
    xmpi::profile::clear_spans();
    constexpr int p = 4;
    constexpr int iterations = 50;
    World::run(p, [] {
        Communicator comm;
        if (comm.rank() == 0) {
            for (int i = 0; i < iterations; ++i) {
                kamping::tracing::enable();
                std::vector<int> const v(1, comm.rank());
                comm.allreduce(send_buf(v), op(std::plus<>{}));
                kamping::tracing::disable();
            }
        } else {
            for (int i = 0; i < iterations; ++i) {
                std::vector<int> const v(1, comm.rank());
                comm.allreduce(send_buf(v), op(std::plus<>{}));
            }
        }
    });
    kamping::tracing::disable();

    for (auto const& span: xmpi::profile::take_spans()) {
        EXPECT_NE(std::string(span.op), "") << "spans must be complete or absent";
        EXPECT_GE(span.duration_s, 0.0);
    }
}

} // namespace
