/// @file probes.hpp
/// @brief The per-layer ledger: each layer timed from outside, through calls
/// into its public functions.
///
/// Binding-layer costs are ns-scale, so they are measured on one rank thread
/// over a loopback (a world of one rank sending to itself), where no
/// cross-thread hand-off is involved, as paired ABBA medians of thread-CPU
/// time: blocks of the kamping call (A) and the equivalent raw XMPI
/// sequence (B) alternate A B B A, and each quad yields one difference. The
/// remaining layers are timed at the workload's rank count and sizes.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/// @brief A paired difference with its noise band (half the interquartile
/// range of the per-quad differences).
struct Paired {
    double value_ns = 0.0;
    double band_ns = 0.0;
    int quads = 0;
    double kamping_calls = 0.0; ///< XMPI calls per kamping unit (exact)
    double raw_calls = 0.0;     ///< XMPI calls per raw unit (exact)

    [[nodiscard]] bool resolved() const { return band_ns <= (value_ns < 0 ? -value_ns : value_ns); }
};

struct Ledger {
    std::map<std::string, Paired> kamping; ///< by call form
    std::map<std::string, double> values;  ///< metric name -> value
};

/// @brief Runs every probe at the parameters of @c spec.
Ledger run_probes(WorkloadSpec const& spec);

/// @brief The kamping call forms the ledger compares against raw XMPI.
std::vector<std::string> const& kamping_forms();

} // namespace perfbench
