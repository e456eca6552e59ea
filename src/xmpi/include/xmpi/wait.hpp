/// @file wait.hpp
/// @brief The one blocking primitive of xmpi: a per-rank eventcount and the
/// spin → yield → park ladder that every blocking call waits through.
///
/// Each rank owns one Eventcount (held by its World next to the rank's
/// mailbox). A blocking call states what it waits for as a predicate and
/// calls wait_until(); every event that can make such a predicate true
/// notifies the eventcount of each rank that may be waiting on it (message
/// publish, rendezvous completion, Ssend match, engine task completion,
/// window unlock, ibarrier / ft / elastic round progress, failure and
/// revocation). No wait carries a timeout: a wait ends because the protocol
/// woke it. DESIGN.md §5 ("One wait primitive") holds the notify table.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "xmpi/status.hpp"

namespace xmpi {

class World;

namespace detail {

/// @brief Thread-local binding of the current thread to (world, rank).
struct RankContext {
    World* world = nullptr;
    int world_rank = UNDEFINED;
};

/// @brief The calling thread's rank context; world == nullptr outside run().
RankContext& current_context();

/// @brief Eventcount over C++20 std::atomic<uint32_t>::wait/notify_all
/// (futex-backed, no mutex). A waiter announces itself (prepare_wait), then
/// re-checks its condition, then parks on the epoch it read; a notifier that
/// made some condition true bumps the epoch only while a waiter is
/// announced. The waiter's announcement and the notifier's state change are
/// each followed by a seq_cst fence (or are seq_cst read-modify-writes), so
/// either the notifier sees the announcement or the waiter's re-check sees
/// the new state: a wake cannot be lost.
class alignas(64) Eventcount {
public:
    /// @brief Announces a waiter; returns the key to pass to wait().
    std::uint32_t prepare_wait() {
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return epoch_.load(std::memory_order_seq_cst);
    }

    /// @brief Withdraws an announcement whose re-check found the condition.
    void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

    /// @brief Parks until the epoch moves past @c key.
    void wait(std::uint32_t key) {
        epoch_.wait(key, std::memory_order_seq_cst);
        waiters_.fetch_sub(1, std::memory_order_relaxed);
    }

    /// @brief Wakes every parked waiter after a state change of any kind.
    void notify() {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        notify_after_seq_cst();
    }

    /// @brief As notify(), for a caller whose state change was itself a
    /// seq_cst read-modify-write (the mailbox arrival count): one load when
    /// nobody is parked.
    void notify_after_seq_cst() {
        if (waiters_.load(std::memory_order_seq_cst) != 0) {
            epoch_.fetch_add(1, std::memory_order_seq_cst);
            epoch_.notify_all();
        }
    }

private:
    std::atomic<std::uint32_t> epoch_{0};
    std::atomic<std::uint32_t> waiters_{0};
};

/// @brief Non-owning reference to a `bool()` callable; the callable must
/// outlive the call it is passed to.
class ReadyRef {
public:
    template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, ReadyRef>>>
    ReadyRef(F&& ready) // NOLINT(google-explicit-constructor): passed as a lambda
        : object_(const_cast<void*>(static_cast<void const*>(&ready))),
          call_([](void* object) {
              return static_cast<bool>((*static_cast<std::remove_reference_t<F>*>(object))());
          }) {}

    bool operator()() const { return call_(object_); }

private:
    void* object_;
    bool (*call_)(void*);
};

/// @brief The abort predicate of waits that cannot be aborted.
inline constexpr auto never = [] { return false; };

/// @brief Blocks the caller until @c ready() holds, on behalf of @c rank.
///
/// Rungs: spin (tuning::spin_budget() checks with a pause between), yield
/// (tuning::yield_budget() checks with sched_yield between), then run the
/// caller's queued engine tasks oldest first while a peer's executing task
/// may be blocked on one of them (progress::detail::poll_awaited()),
/// re-checking after each, and finally park on @c rank's eventcount. Every
/// check first drains @c rank's incoming rings, so a completion sitting in
/// them is found and peers waiting on this rank's consumption keep moving.
///
/// @param aborted Ends the wait unsuccessfully (failure, revocation). It is
/// consulted only once the spin and yield budgets are spent, so a
/// completion already in flight wins over a concurrent failure.
/// @param deadline wtime() seconds, or 0 for none. A deadline is a protocol
/// timer (the rendezvous eager fallback), not a backstop: while it is set
/// the wait never parks, it stays on the yield rung and returns false once
/// the deadline passes.
/// @return true iff @c ready() held.
///
/// A thread bound to no world has no eventcount to park on; it stays on the
/// yield rung.
bool wait_until(
    RankContext const& rank, ReadyRef ready, ReadyRef aborted = never, double deadline = 0.0);

/// @brief wait_until() for a condition guarded by a mutex: @c ready runs
/// with @c lock held, and the call returns with @c lock held and
/// @c ready() true. The mutex is released whenever the caller spins,
/// yields or parks.
template <typename Ready>
void wait_locked(RankContext const& rank, std::unique_lock<std::mutex>& lock, Ready&& ready) {
    if (ready()) {
        return;
    }
    lock.unlock();
    wait_until(rank, [&] {
        lock.lock();
        if (ready()) {
            return true;
        }
        lock.unlock();
        return false;
    });
}

} // namespace detail
} // namespace xmpi
