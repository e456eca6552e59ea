#include "xmpi/tuning.hpp"

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace xmpi::tuning {

namespace {

bool g_spin_budget_forced = false;

[[nodiscard]] long env_long(char const* name, long fallback, bool* seen = nullptr) {
    char const* const raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') {
        return fallback;
    }
    char* end = nullptr;
    long const value = std::strtol(raw, &end, 10);
    if (end == raw || value < 0) {
        std::fprintf(
            stderr, "xmpi: ignoring malformed %s=\"%s\" (keeping %ld)\n", name, raw, fallback);
        return fallback;
    }
    if (seen != nullptr) {
        *seen = true;
    }
    return value;
}

/// @brief Clamps one knob to @c minimum, logging when an explicit
/// environment override was raised (silent clamping of a user-set value
/// would make the knob look honored when it is not).
void clamp_min(std::size_t& knob, std::size_t minimum, bool seen, char const* name) {
    if (knob >= minimum) {
        return;
    }
    if (seen) {
        std::fprintf(
            stderr, "xmpi: %s=%zu below minimum, clamping to %zu\n", name, knob, minimum);
    }
    knob = minimum;
}

[[nodiscard]] Transport seed_from_env() {
    Transport knobs;
    bool ring_seen = false;
    bool watermark_seen = false;
    bool coalesce_seen = false;
    bool rendezvous_seen = false;
    knobs.spin_before_block = static_cast<int>(
        env_long("XMPI_SPIN_BUDGET", knobs.spin_before_block, &g_spin_budget_forced));
    knobs.yield_before_block =
        static_cast<int>(env_long("XMPI_YIELD_BUDGET", knobs.yield_before_block));
    knobs.rendezvous_threshold = static_cast<std::size_t>(env_long(
        "XMPI_RENDEZVOUS_THRESHOLD", static_cast<long>(knobs.rendezvous_threshold),
        &rendezvous_seen));
    knobs.coalesce_max_bytes = static_cast<std::size_t>(env_long(
        "XMPI_COALESCE_MAX_BYTES", static_cast<long>(knobs.coalesce_max_bytes),
        &coalesce_seen));
    knobs.coalesce_watermark = static_cast<std::size_t>(env_long(
        "XMPI_COALESCE_WATERMARK", static_cast<long>(knobs.coalesce_watermark),
        &watermark_seen));
    knobs.ring_capacity = static_cast<std::size_t>(
        env_long("XMPI_RING_CAPACITY", static_cast<long>(knobs.ring_capacity), &ring_seen));
    knobs.rendezvous_fallback_us =
        env_long("XMPI_RENDEZVOUS_FALLBACK_US", knobs.rendezvous_fallback_us);

    // Structural minima. Zero was previously accepted for several of these
    // and wedged the transport: a zero-capacity ring can never publish, and
    // a zero watermark makes every batch block full before its first record.
    clamp_min(knobs.ring_capacity, 2, ring_seen, "XMPI_RING_CAPACITY");
    clamp_min(knobs.rendezvous_threshold, 1, rendezvous_seen, "XMPI_RENDEZVOUS_THRESHOLD");
    // The eager/rendezvous split must stay ordered: a coalesce-eligible send
    // must never also be rendezvous-eligible. Clamp the coalesce ceiling
    // below the rendezvous floor rather than the other way around, so an
    // explicit rendezvous threshold keeps its meaning.
    if (knobs.coalesce_max_bytes >= knobs.rendezvous_threshold) {
        std::size_t const clamped = knobs.rendezvous_threshold - 1;
        if (coalesce_seen || rendezvous_seen) {
            std::fprintf(
                stderr,
                "xmpi: XMPI_COALESCE_MAX_BYTES=%zu overlaps the rendezvous threshold %zu, "
                "clamping to %zu\n",
                knobs.coalesce_max_bytes, knobs.rendezvous_threshold, clamped);
        }
        knobs.coalesce_max_bytes = clamped;
    }
    // A batch block must at least fit one max-size coalesced record (and
    // never be zero: watermark 0 would reject every coalesce attempt).
    clamp_min(
        knobs.coalesce_watermark, knobs.coalesce_max_bytes + 16, watermark_seen,
        "XMPI_COALESCE_WATERMARK");
    return knobs;
}

} // namespace

Transport& transport() {
    static Transport knobs = seed_from_env();
    return knobs;
}

int spin_budget() {
    Transport const& knobs = transport();
    if (g_spin_budget_forced) {
        return knobs.spin_before_block;
    }
    // On a single hardware thread the sender cannot make progress while we
    // spin, so blocking immediately is strictly better.
    static unsigned const hw = std::thread::hardware_concurrency();
    return hw > 1 ? knobs.spin_before_block : 0;
}

int yield_budget() { return transport().yield_before_block; }

Coll& coll() {
    static Coll knobs;
    return knobs;
}

} // namespace xmpi::tuning
