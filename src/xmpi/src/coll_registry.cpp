/// @file coll_registry.cpp
/// @brief Registry storage, the selection dispatcher, the blocking and
/// non-blocking drivers, and shared helpers.
#include "coll_registry.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "transport.hpp"
#include "xmpi/comm.hpp"
#include "xmpi/netmodel.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/progress.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

std::vector<CollAlgo> const& coll_registry() {
    // Function-local static: the registrations run exactly once, on the
    // first collective of the process, with no static-initialization-order
    // hazard.
    static std::vector<CollAlgo> const registry = [] {
        std::vector<CollAlgo> entries;
        register_basic_algos(entries);
        register_reduce_algos(entries);
        register_gather_algos(entries);
        register_alltoall_algos(entries);
        return entries;
    }();
    return registry;
}

CollAlgo const* find_coll_algo(tuning::CollOp op, char const* name) {
    for (auto const& entry: coll_registry()) {
        if (entry.op == op && std::strcmp(entry.name, name) == 0) {
            return &entry;
        }
    }
    return nullptr;
}

namespace {

[[nodiscard]] bool
entry_applicable(CollAlgo const& entry, tuning::CollOp op, tuning::SelectCtx const& sctx) {
    return entry.op == op && (entry.applicable == nullptr || entry.applicable(sctx));
}

} // namespace

CollAlgo const* select_coll_algo(
    tuning::CollOp op, tuning::SelectCtx const& sctx, tuning::Selection* selection) {
    auto const& registry = coll_registry();
    auto const found = [&](CollAlgo const& entry, bool forced) {
        if (selection != nullptr) {
            *selection = tuning::Selection{entry.name, forced};
        }
        return &entry;
    };

    // Layer 1: an explicit force (benches measuring one candidate at a
    // time). Silently falls through when the forced name is inapplicable —
    // correctness constraints outrank the force.
    if (char const* const force = tuning::coll().force_algorithm; force != nullptr) {
        for (auto const& entry: registry) {
            if (entry_applicable(entry, op, sctx) && std::strcmp(entry.name, force) == 0) {
                return found(entry, true);
            }
        }
    }

    // Layer 2: the alpha/beta model — argmin of modeled cost over the
    // applicable entries that have one (first registered wins ties, so the
    // more specialized algorithm is kept on equal-cost cells).
    if (sctx.model_enabled) {
        CollAlgo const* best = nullptr;
        double best_cost = 0.0;
        for (auto const& entry: registry) {
            if (entry.cost == nullptr || !entry_applicable(entry, op, sctx)) {
                continue;
            }
            double const entry_cost = entry.cost(sctx);
            if (best == nullptr || entry_cost < best_cost) {
                best = &entry;
                best_cost = entry_cost;
            }
        }
        if (best != nullptr) {
            return found(*best, false);
        }
    }

    // Layer 3: static preference thresholds, in registration order.
    for (auto const& entry: registry) {
        if (entry_applicable(entry, op, sctx)
            && (entry.preferred == nullptr || entry.preferred(sctx))) {
            return found(entry, false);
        }
    }
    // No entry preferred itself: the first applicable one (every op
    // registers an always-applicable fallback, so only an unknown op can
    // still fall through).
    for (auto const& entry: registry) {
        if (entry_applicable(entry, op, sctx)) {
            return found(entry, false);
        }
    }
    return nullptr;
}

int run_coll_algo(CollAlgo const& algo, CollCtx& ctx) {
    int const err = algo.run(ctx);
    // Note AFTER the run: nested dispatches (composite algorithms) noted
    // their inner names during run(), and the outermost name must be the one
    // the binding layer takes.
    profile::note_algorithm(algo.name);
    return err;
}

int run_coll(CollCall call) {
    if (int const err = check_collective(*call.ctx.comm); err != XMPI_SUCCESS) {
        return err;
    }
    CollAlgo const* const algo = select_coll_algo(call.op, call.sctx, nullptr);
    if (algo == nullptr) {
        return XMPI_ERR_ARG; // no registered algorithm for this op
    }
    return run_coll_algo(*algo, call.ctx);
}

Request* submit_coll(char const* name, CollCall const& call) {
    return progress::detail::submit(name, call.ctx.comm, [call] { return run_coll(call); });
}

tuning::SelectCtx make_select_ctx(Comm& comm, std::size_t block_bytes, bool commutative) {
    NetworkModel const& model = comm.world().network_model();
    tuning::SelectCtx sctx;
    sctx.p = comm.size();
    sctx.block_bytes = block_bytes;
    sctx.commutative = commutative;
    sctx.model_enabled = model.enabled();
    sctx.alpha = model.alpha;
    sctx.beta = model.beta;
    return sctx;
}

void local_copy(
    void const* src, std::size_t scount, Datatype const& stype, void* dst, std::size_t rcount,
    Datatype const& rtype) {
    std::size_t const bytes = std::min(stype.packed_size(scount), rtype.packed_size(rcount));
    std::size_t const elements = rtype.size() == 0 ? 0 : bytes / rtype.size();
    if (stype.is_contiguous()) {
        // A contiguous source already is its packed form.
        rtype.unpack(static_cast<std::byte const*>(src), elements, dst);
        return;
    }
    std::vector<std::byte> packed(stype.packed_size(scount));
    stype.pack(src, scount, packed.data());
    rtype.unpack(packed.data(), elements, dst);
}

std::byte* displaced(void* base, std::ptrdiff_t elements, Datatype const& type) {
    return static_cast<std::byte*>(base) + elements * type.extent();
}

std::byte const* displaced(void const* base, std::ptrdiff_t elements, Datatype const& type) {
    return static_cast<std::byte const*>(base) + elements * type.extent();
}

} // namespace xmpi::detail

namespace xmpi::tuning {

Selection select(CollOp op, SelectCtx const& ctx) {
    Selection selection;
    (void)detail::select_coll_algo(op, ctx, &selection);
    return selection;
}

std::vector<char const*> candidates(CollOp op, SelectCtx const& ctx) {
    std::vector<char const*> names;
    for (auto const& entry: detail::coll_registry()) {
        if (entry.op == op && (entry.applicable == nullptr || entry.applicable(ctx))) {
            names.push_back(entry.name);
        }
    }
    return names;
}

} // namespace xmpi::tuning
