/// @file trace.hpp
/// @brief Span recording for the traced run.
///
/// Each rank thread owns one Lane: an in-memory span buffer that only its
/// own thread appends to, so recording takes no lock. A lane records one
/// span per op and one child span per call the benchmark makes into a
/// layer of the stack (kamping wrapper, XMPI entry point, scheduler), all
/// carrying the op's id. When the lane is off, call() is a branch and the
/// callable — nothing is timed or stored.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct SpanRecord {
    char const* name = "";     ///< static string: "op", "kamping.send", ...
    std::uint64_t op_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the op span in the lane, -1 for op spans
    std::int64_t child_ns = 0; ///< summed duration of direct children (op spans only)
};

class Lane {
public:
    bool on = false;
    std::size_t cap = 0; ///< spans kept; beyond it spans are counted, not stored
    std::vector<SpanRecord> spans;
    std::uint64_t dropped = 0;

    void op_begin(std::uint64_t op_id) {
        if (!on) {
            return;
        }
        op_id_ = op_id;
        op_index_ = -1;
        op_start_ = wall_ns();
        op_child_ns_ = 0;
        if (spans.size() < cap) {
            op_index_ = static_cast<std::int32_t>(spans.size());
            spans.push_back({"op", op_id, op_start_, 0, -1, 0});
        }
    }

    /// @brief Ends the op span; returns its duration (0 when off).
    std::int64_t op_end() {
        if (!on) {
            return 0;
        }
        std::int64_t const end = wall_ns();
        if (op_index_ >= 0) {
            auto& span = spans[static_cast<std::size_t>(op_index_)];
            span.end_ns = end;
            span.child_ns = op_child_ns_;
        } else {
            ++dropped;
        }
        op_child_sums_.push_back(op_child_ns_);
        return end - op_start_;
    }

    /// @brief Runs @c fn as one call into the layer @c name.
    template <typename Fn>
    decltype(auto) call(char const* name, Fn&& fn) {
        if (!on) {
            return fn();
        }
        std::int64_t const start = wall_ns();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record(name, start);
        } else {
            decltype(auto) result = fn();
            record(name, start);
            return result;
        }
    }

    /// @brief Per traced op: summed time inside layer calls.
    [[nodiscard]] std::vector<std::int64_t> const& op_child_sums() const { return op_child_sums_; }

private:
    void record(char const* name, std::int64_t start) {
        std::int64_t const end = wall_ns();
        op_child_ns_ += end - start;
        if (op_index_ >= 0 && spans.size() < cap) {
            spans.push_back({name, op_id_, start, end, op_index_, 0});
        } else {
            ++dropped;
        }
    }

    std::uint64_t op_id_ = 0;
    std::int32_t op_index_ = -1;
    std::int64_t op_start_ = 0;
    std::int64_t op_child_ns_ = 0;
    std::vector<std::int64_t> op_child_sums_;
};

/// @brief Writes the lanes as Chrome trace-event JSON (one tid per rank;
/// each event carries its op id and computed self time). @return false if
/// the file could not be written.
bool write_chrome_trace(
    std::string const& path, std::vector<Lane const*> const& lanes, std::string const& workload);

} // namespace perfbench
