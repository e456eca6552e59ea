/// @file workloads.hpp
/// @brief The four closed-loop workloads and the loop that drives them.
///
/// Every workload runs in one process: p rank threads of one xmpi World plus
/// the progress engine's workers, capped so that together they never exceed
/// the host's processors. Each rank issues its next op only after the
/// previous one completed (closed loop); an op is one round of the
/// workload's fixed call sequence, and its inputs are derived from the seed
/// and the op index alone.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util.hpp"
#include "xmpi/profile.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out; ///< Chrome trace path (traced run)
};

/// @brief Static description of a workload: its world, its engine cap and
/// the parameters its layer probes run at.
struct WorkloadSpec {
    char const* name = "";
    int p = 2;
    bool elastic = false;
    unsigned engine_threads = 1;
    int warmup_ops = 0;
    std::uint64_t counter_window = 1; ///< ops in the exact-count window
    std::size_t probe_msg_bytes = 8;  ///< point-to-point probe size
    std::size_t probe_coll_bytes = 8; ///< collective probe size
    bool collective_ops = false; ///< every call of an op is a collective
    /// kamping call forms of one op, with how often each is issued per op
    /// (summed over ranks); weights the per-form extra-call counts.
    std::map<std::string, double> form_uses;
};

/// @brief Looks up a workload by name; nullptr when unknown.
WorkloadSpec const* find_workload(std::string const& name);

/// @brief The profile counters the ledger reads, summed over ranks.
struct Counts {
    std::uint64_t calls = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t ring_full_fallbacks = 0;
    std::uint64_t rendezvous = 0;
    std::uint64_t bytes_zero_copied = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::uint64_t engine_tasks = 0;
    std::uint64_t engine_inline = 0;
    std::uint64_t engine_steals = 0;
    std::uint64_t engine_stalls = 0;
    std::uint64_t rma_atomics = 0;
    std::uint64_t rma_epoch_waits = 0;
    std::uint64_t steals_attempted = 0;
    std::uint64_t steals_succeeded = 0;
    std::uint64_t tasks_executed = 0;

    static Counts of(xmpi::profile::Snapshot const& s);
    Counts operator-(Counts const& o) const;
    Counts& operator+=(Counts const& o);
};

/// @brief One timed phase, as seen from rank 0 (latencies, elapsed) and
/// summed over ranks (usage, counters).
struct Phase {
    std::uint64_t ops = 0;
    double seconds = 0.0;
    std::int64_t start_ns = 0;
    std::vector<std::int64_t> lat_ns;  ///< rank 0's per-op latency
    std::vector<std::int64_t> done_ns; ///< rank 0's per-op completion time
    ThreadUsage usage;                ///< summed over rank threads
    double rank_wall_s = 0.0;         ///< summed over rank threads
    Counts counts;
    double bytes = 0.0; ///< payload bytes the ops moved
    double tasks = 0.0; ///< units of work the ops completed
};

struct WorkloadResult {
    std::vector<double> setup_s;
    Phase timed;  ///< untraced
    Phase traced; ///< traced run only
    std::uint64_t window_ops = 0;
    Counts window; ///< exact-count window (first ops of the timed phase)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    int census_max = 0;  ///< rank threads + engine workers alive while timing
    int threads_max = 0; ///< all threads of the process while timing
    std::map<std::string, double> stats; ///< workload-specific figures
    std::vector<Lane> lanes;             ///< traced run: one per rank
};

/// @brief Runs the workload: set-up trials, then the timed phase (and, for a
/// traced run, an untraced and a traced phase of half the time each).
WorkloadResult run_workload(WorkloadSpec const& spec, Options const& options, int setup_trials);

} // namespace perfbench
