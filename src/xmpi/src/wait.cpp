#include "xmpi/wait.hpp"

#include <thread>

#include "xmpi/progress.hpp"
#include "xmpi/tuning.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

bool wait_until(RankContext const& rank, ReadyRef ready, ReadyRef aborted, double deadline) {
    auto const expired = [&] { return deadline > 0.0 && wtime() >= deadline; };
    if (rank.world == nullptr) {
        while (!ready()) {
            if (aborted() || expired()) {
                return false;
            }
            std::this_thread::yield();
        }
        return true;
    }
    Mailbox& mailbox = rank.world->mailbox(rank.world_rank);
    Eventcount& events = rank.world->events(rank.world_rank);
    auto& counters = rank.world->counters(rank.world_rank);
    auto const check = [&] {
        mailbox.poll();
        return ready();
    };
    // Each return on readiness counts the rung that saw it.
    auto const ready_on = [](std::atomic<std::uint64_t>& rung) {
        rung.fetch_add(1, std::memory_order_relaxed);
        return true;
    };

    // In latency-bound patterns the event lands within microseconds, so a
    // short spin skips the park/wake round trip entirely.
    for (int i = tuning::spin_budget(); i > 0; --i) {
        if (check()) {
            return ready_on(counters.waits_spun);
        }
        spin_pause();
    }
    // On an oversubscribed machine a yield hands the core to the very
    // thread being waited on, where a futex round trip would cost
    // microseconds.
    for (int i = tuning::yield_budget(); i > 0; --i) {
        if (check()) {
            return ready_on(counters.waits_yielded);
        }
        std::this_thread::yield();
    }
    for (;;) {
        if (check()) {
            return ready_on(counters.waits_parked);
        }
        if (aborted() || expired()) {
            return false;
        }
        if (deadline > 0.0) {
            std::this_thread::yield(); // a pending deadline never parks
            continue;
        }
        // A peer's executing task may be blocked on one of the caller's
        // queued tasks: run it rather than park on it.
        if (progress::detail::poll_awaited()) {
            continue;
        }
        std::uint32_t const key = events.prepare_wait();
        // Re-check after announcing: an event that lands from here on
        // notifies us. Undrained arrivals are drained by the next check
        // instead of parking on them.
        if (ready()) {
            events.cancel_wait();
            return ready_on(counters.waits_parked);
        }
        if (aborted() || mailbox.has_undrained()) {
            events.cancel_wait();
        } else {
            events.wait(key);
        }
    }
}

} // namespace xmpi::detail
