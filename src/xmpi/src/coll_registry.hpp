/// @file coll_registry.hpp
/// @brief The collective algorithm registry: one named entry per algorithm,
/// one selection seam for all of them.
///
/// Every collective translation unit registers its algorithms here instead of
/// branching on thresholds inline; xmpi::tuning::select() (implemented in
/// coll_registry.cpp against this registry) is the only place selection
/// happens. Entries carry three predicates with distinct roles:
///
///   - applicable(): HARD correctness constraints (op commutativity,
///     power-of-two rank counts). Never overridden — not by the model, not
///     by a force.
///   - preferred(): the static byte/rank thresholds of netmodel.hpp, used
///     when no model or force decides. Each threshold constant is
///     referenced from exactly one preferred() so there is a single source
///     of truth per constant.
///   - cost(): modeled alpha/beta seconds; when a network model is active
///     the applicable entry with the lowest modeled cost wins. Entries
///     without a cost model simply never win this layer.
///
/// Registration order within one op is the preference order: the dispatcher
/// walks entries front to back, so more specialized (latency-optimal)
/// algorithms register before the always-applicable fallback.
#pragma once

#include <cstddef>
#include <vector>

#include "coll.hpp"
#include "xmpi/tuning.hpp"

namespace xmpi::detail {

/// @brief One registered collective algorithm.
struct CollAlgo {
    tuning::CollOp op;
    char const* name; ///< static storage; the name select()/tracing report
    /// Hard constraints; nullptr = always applicable.
    bool (*applicable)(tuning::SelectCtx const&);
    /// Static threshold preference; nullptr = always preferred (fallbacks).
    bool (*preferred)(tuning::SelectCtx const&);
    /// Modeled cost in seconds; nullptr = not modeled (skipped by the model
    /// layer).
    double (*cost)(tuning::SelectCtx const&);
    int (*run)(CollCtx&);
};

/// @brief The process-wide registry, populated on first use by the
/// register_*_algos() hooks below (explicit calls, not static registrar
/// objects: a static library may drop a TU nothing references).
[[nodiscard]] std::vector<CollAlgo> const& coll_registry();

/// @brief Finds the entry (op, name), or nullptr.
[[nodiscard]] CollAlgo const* find_coll_algo(tuning::CollOp op, char const* name);

/// @brief Runs select() and resolves the winner to its registry entry.
/// @param selection out-param for the Selection record; may be nullptr.
[[nodiscard]] CollAlgo const*
select_coll_algo(tuning::CollOp op, tuning::SelectCtx const& sctx, tuning::Selection* selection);

/// @brief Runs one entry and notes its algorithm name for tracing. The note
/// happens AFTER the run so composite algorithms (reduce_scatter's inner
/// reduce + scatter) leave the *outermost* name in the thread-local slot for
/// the binding layer to take.
int run_coll_algo(CollAlgo const& algo, CollCtx& ctx);

/// @brief Builds a SelectCtx from the live communicator and block size.
[[nodiscard]] tuning::SelectCtx
make_select_ctx(Comm& comm, std::size_t block_bytes, bool commutative = true);

/// @name Shared buffer helpers (hoisted from the collective TUs)
/// @{
/// @brief Local datatype conversion: copies (src, scount, stype) into (dst,
/// up to rcount elements of rtype). A contiguous source unpacks straight
/// into dst; only a non-contiguous one is packed into a temporary first.
/// The self-copy of rooted collectives and the drain of an RMA get.
void local_copy(
    void const* src, std::size_t scount, Datatype const& stype, void* dst, std::size_t rcount,
    Datatype const& rtype);
[[nodiscard]] std::byte* displaced(void* base, std::ptrdiff_t elements, Datatype const& type);
[[nodiscard]] std::byte const*
displaced(void const* base, std::ptrdiff_t elements, Datatype const& type);
/// @}

/// @name Per-TU registration hooks (called once from coll_registry())
/// @{
void register_basic_algos(std::vector<CollAlgo>& registry);    // coll_basic.cpp
void register_reduce_algos(std::vector<CollAlgo>& registry);   // coll_reduce.cpp
void register_gather_algos(std::vector<CollAlgo>& registry);   // coll_gather.cpp
void register_alltoall_algos(std::vector<CollAlgo>& registry); // coll_alltoall.cpp
/// @}

} // namespace xmpi::detail
