/// @file tuning.hpp
/// @brief Runtime-tunable transport knobs.
///
/// Unlike the compile-time collective thresholds in netmodel.hpp (which gate
/// algorithm *selection* and want constant-folding), the transport knobs
/// below trade latency against CPU burn and memory, which depends on the
/// machine the emulation runs on — so they are runtime values, seeded once
/// from the environment and mutable from tests before a World is started.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace xmpi::tuning {

/// @brief Hard-coded defaults (exposed for tests and documentation).
inline constexpr int kDefaultSpinBeforeBlock = 2000;
inline constexpr int kDefaultYieldBeforeBlock = 8;
inline constexpr std::size_t kDefaultRendezvousThreshold = 32 * 1024;
inline constexpr std::size_t kDefaultCoalesceMaxBytes = 512;
inline constexpr std::size_t kDefaultCoalesceWatermark = 8 * 1024;
inline constexpr std::size_t kDefaultRingCapacity = 64;
inline constexpr long kDefaultRendezvousFallbackUs = 200;

/// @brief Transport tuning knobs. Read on every send/receive; mutate only
/// while no World is running (tests) — the environment override is the
/// supported production mechanism.
struct Transport {
    /// Checks the spin rung of wait_until (wait.hpp) makes, a CPU pause
    /// between each, before it yields. Env: XMPI_SPIN_BUDGET.
    int spin_before_block = kDefaultSpinBeforeBlock;

    /// After spinning, checks made with sched-yield in between before the
    /// wait parks on the rank's eventcount. On an oversubscribed (or
    /// single-core) machine a yield hands the CPU straight to the peer we
    /// are waiting on, where a futex sleep/wake round trip would cost
    /// microseconds. Env: XMPI_YIELD_BUDGET.
    int yield_before_block = kDefaultYieldBeforeBlock;

    /// Contiguous point-to-point sends of at least this many bytes use the
    /// receiver-pulled rendezvous protocol. Env: XMPI_RENDEZVOUS_THRESHOLD.
    std::size_t rendezvous_threshold = kDefaultRendezvousThreshold;

    /// Contiguous sends up to this many bytes are eligible for coalescing
    /// into a shared batch slot. Env: XMPI_COALESCE_MAX_BYTES.
    std::size_t coalesce_max_bytes = kDefaultCoalesceMaxBytes;

    /// Capacity of one batch block: how many bytes of coalesced records a
    /// single ring slot can aggregate. Env: XMPI_COALESCE_WATERMARK.
    std::size_t coalesce_watermark = kDefaultCoalesceWatermark;

    /// Slots per (src,dst) PeerRing, rounded up to a power of two.
    /// Env: XMPI_RING_CAPACITY.
    std::size_t ring_capacity = kDefaultRingCapacity;

    /// Microseconds a rendezvous sender waits for a receiver to claim the
    /// descriptor before falling back to an eager copy (which restores the
    /// plain eager completion semantics, so programs relying on eager
    /// buffering cannot deadlock). Env: XMPI_RENDEZVOUS_FALLBACK_US.
    long rendezvous_fallback_us = kDefaultRendezvousFallbackUs;
};

/// @brief The process-wide transport knobs, environment-seeded on first use.
[[nodiscard]] Transport& transport();

/// @brief Effective spin budget of wait_until's spin rung: 0 when the
/// machine has a single hardware thread (spinning only steals cycles from
/// the thread we are waiting on), else @c transport().spin_before_block.
/// An explicit XMPI_SPIN_BUDGET wins even on one hardware thread.
[[nodiscard]] int spin_budget();

/// @brief Yield budget for the middle rung of the spin → yield → park ladder.
/// Unlike spin_budget() this does NOT collapse on a single hardware thread:
/// a yield is exactly how the waited-on peer gets the core there.
[[nodiscard]] int yield_budget();

// ---------------------------------------------------------------------------
// Collective algorithm selection (the registry seam)
// ---------------------------------------------------------------------------
//
// Every collective with at least one implemented algorithm is represented in
// a process-wide registry (src/coll_registry.cpp); the collective translation
// units register their algorithms at first use and dispatch through
// select(). Selection layers, strongest first:
//
//   1. an explicit force (coll().force_algorithm — benches and tests),
//   2. the alpha/beta network model (argmin modeled cost), when active,
//   3. the static preference thresholds baked into each algorithm entry.
//
// Hard correctness constraints (op commutativity, power-of-two rank counts)
// live in each entry's applicable() predicate and can never be overridden by
// a force.

/// @brief The collective operations with registry entries.
enum class CollOp : int {
    barrier,
    bcast,
    gather,
    gatherv,
    scatter,
    scatterv,
    allgather,
    allgatherv,
    alltoall,
    alltoallv,
    alltoallw,
    neighbor_alltoallv,
    reduce,
    allreduce,
    reduce_scatter,
    scan,
};

/// @brief Everything selection may depend on. Built by the collective entry
/// points from the live communicator; benches and tests construct it
/// directly to probe the selection matrix.
struct SelectCtx {
    int p = 1;                    ///< communicator size
    std::size_t block_bytes = 0;  ///< packed per-peer block size (the paper's "count")
    bool commutative = true;      ///< reduction-op commutativity (reduce family)
    bool model_enabled = false;   ///< an alpha/beta network model is active
    double alpha = 0.0;           ///< model per-message start-up [s]
    double beta = 0.0;            ///< model per-byte cost [s]
};

/// @brief Outcome of one selection.
struct Selection {
    char const* algorithm = "";   ///< registry entry name (static storage)
    bool forced = false;          ///< coll().force_algorithm decided
};

/// @brief Picks the algorithm for one collective invocation. Total: every op
/// has an always-applicable fallback entry, so this never fails.
[[nodiscard]] Selection select(CollOp op, SelectCtx const& ctx);

/// @brief Names of all entries applicable to (op, ctx), strongest preference
/// first.
[[nodiscard]] std::vector<char const*> candidates(CollOp op, SelectCtx const& ctx);

/// @brief Collective-selection knobs.
struct Coll {
    /// When non-null, select() returns this entry if it is applicable to the
    /// op at hand (benches force one candidate at a time). Must point at a
    /// string with static storage duration. Atomic: a harness may flip the
    /// force while other ranks are dispatching collectives that read it.
    std::atomic<char const*> force_algorithm{nullptr};
};

/// @brief The process-wide collective knobs.
[[nodiscard]] Coll& coll();

} // namespace xmpi::tuning
