/// @file pool.hpp
/// @brief Size-classed payload buffer pool of the xmpi transport.
///
/// Every eager send needs an owned payload buffer; allocating it from the
/// heap puts malloc/free on the critical path of *every* message and
/// dominates small-message latency. The pool recycles payload vectors
/// through per-rank sharded freelists bucketed by power-of-two size class,
/// so steady-state traffic performs zero heap allocations: the sender pops
/// a buffer from its shard, the receiver pushes it back after unpacking
/// (buffers migrate between shards with the traffic, which keeps the hot
/// shard warm for ping-pong patterns).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace xmpi::profile {
struct RankCounters;
}

namespace xmpi::detail {

/// @brief Per-world pool of payload buffers, sharded per rank.
///
/// Buffers are plain `std::vector<std::byte>`, so a payload that is never
/// explicitly released (e.g. an unexpected message dropped at world
/// teardown) is simply freed by its destructor — the pool is a fast path,
/// not an ownership requirement.
class PayloadPool {
public:
    /// Smallest pooled class; requests below are rounded up.
    static constexpr std::size_t kMinClassBytes = 64;
    /// Largest pooled class; larger payloads bypass the pool entirely.
    static constexpr std::size_t kMaxClassBytes = std::size_t{1} << 20;
    /// Freelist depth per (shard, class); bounds pooled memory.
    static constexpr std::size_t kMaxBuffersPerClass = 64;

    explicit PayloadPool(int shards);

    /// @brief Returns a buffer resized to @c bytes. Reuses a pooled buffer
    /// of the matching size class when available (counted as a pool hit on
    /// @c counters), otherwise allocates (a miss). Zero-byte requests and
    /// requests above kMaxClassBytes never touch the pool.
    [[nodiscard]] std::vector<std::byte> acquire(
        std::size_t bytes, profile::RankCounters& counters);

    /// @brief Returns a buffer to the calling rank's shard. Buffers whose
    /// capacity fits no size class, and overfull freelists, drop the buffer
    /// (freed by the vector destructor).
    void release(std::vector<std::byte>&& buffer);

private:
    static constexpr std::size_t kNumClasses = 15; // 64 B .. 1 MiB

    struct Shard {
        std::mutex mutex;
        std::array<std::vector<std::vector<std::byte>>, kNumClasses> freelists;
    };

    /// @brief Smallest class index whose buffers hold >= bytes, or
    /// kNumClasses if the request is unpoolable.
    static std::size_t class_for_request(std::size_t bytes);
    /// @brief Largest class index a buffer of this capacity can serve, or
    /// kNumClasses if it fits none.
    static std::size_t class_for_capacity(std::size_t capacity);
    /// @brief Shard of the calling thread (its world rank, or shard 0 for
    /// unattached threads).
    [[nodiscard]] Shard& my_shard();
    /// @brief Pops a buffer of class @c cls from @c shard into @c out.
    static bool try_pop(Shard& shard, std::size_t cls, std::vector<std::byte>& out);

    std::vector<Shard> shards_;
};

} // namespace xmpi::detail
