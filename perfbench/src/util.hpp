/// @file util.hpp
/// @brief Clocks, order statistics, seeded payload patterns, per-thread
/// resource usage and the host/thread census shared by the benchmark's
/// workloads and probes.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// @brief Monotonic wall clock in nanoseconds.
inline std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// @brief CPU time consumed by the calling thread, in nanoseconds.
inline std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// @brief splitmix64: the one hash used to derive every seeded input.
inline std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) { return mix(a ^ mix(b)); }

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return mix(mix(a, b), c);
}

/// @brief Fills @c words with the pattern named by @c key: word i is
/// key ^ (i * odd constant), so every word of every message differs and a
/// stale or misplaced word is caught by check_pattern.
inline void fill_pattern(std::uint64_t* words, std::size_t n, std::uint64_t key) {
    for (std::size_t i = 0; i < n; ++i) {
        words[i] = key ^ (i * 0x9E3779B97F4A7C15ull);
    }
}

/// @brief True iff @c words hold exactly the pattern fill_pattern(key) writes.
inline bool check_pattern(std::uint64_t const* words, std::size_t n, std::uint64_t key) {
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < n; ++i) {
        diff |= words[i] ^ (key ^ (i * 0x9E3779B97F4A7C15ull));
    }
    return diff == 0;
}

/// @brief Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// the same definition as numpy's default and Python's
/// statistics.quantiles(method="inclusive").
template <typename T>
double quantile(std::vector<T> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    double const pos = q * static_cast<double>(values.size() - 1);
    auto const lo = static_cast<std::size_t>(std::floor(pos));
    auto const hi = std::min(lo + 1, values.size() - 1);
    double const frac = pos - static_cast<double>(lo);
    return static_cast<double>(values[lo]) * (1.0 - frac) + static_cast<double>(values[hi]) * frac;
}

template <typename T>
double median(std::vector<T> values) {
    return quantile(std::move(values), 0.5);
}

/// @brief getrusage(RUSAGE_THREAD) of the calling thread.
struct ThreadUsage {
    double user_s = 0.0;
    double sys_s = 0.0;
    std::int64_t vcsw = 0;
    std::int64_t ivcsw = 0;

    static ThreadUsage now() {
        rusage ru{};
        getrusage(RUSAGE_THREAD, &ru);
        ThreadUsage u;
        u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
        u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
        u.vcsw = ru.ru_nvcsw;
        u.ivcsw = ru.ru_nivcsw;
        return u;
    }
    ThreadUsage operator-(ThreadUsage const& o) const {
        return {user_s - o.user_s, sys_s - o.sys_s, vcsw - o.vcsw, ivcsw - o.ivcsw};
    }
    ThreadUsage& operator+=(ThreadUsage const& o) {
        user_s += o.user_s;
        sys_s += o.sys_s;
        vcsw += o.vcsw;
        ivcsw += o.ivcsw;
        return *this;
    }
};

/// @brief Number of threads alive in this process (/proc/self/task).
int live_threads();

/// @brief Online processors of this host.
int host_nproc();

/// @brief Host description: cache sizes, compiler and build type.
struct HostInfo {
    int nproc = 0;
    std::vector<std::pair<std::string, std::string>> caches; ///< ("L1d", "48K"), ...
    std::string compiler;
    std::string build_type;
};
HostInfo host_info();

} // namespace perfbench
