/// @file progress.hpp
/// @brief Shared non-blocking progress engine.
///
/// Non-blocking collectives used to spawn one dedicated helper thread per
/// initiation (a thread-per-request design), so N in-flight operations cost N
/// threads — which collapses under "as many in-flight ops as the hardware
/// allows" scaling. The progress engine replaces that with a lazily-started,
/// bounded worker pool draining a bounded queue of resumable collective
/// tasks: N in-flight operations cost O(pool) threads.
///
/// Progress / deadlock-freedom contract:
///  - initiation enqueues a task; when the queue is full the task runs
///    inline on the initiating rank (backpressure, counted as
///    `engine_inline_fallbacks`),
///  - `wait()` on a still-queued task claims and runs it on the calling
///    rank's thread, so completion never depends on pool capacity,
///  - while its own task runs elsewhere, a rank waiting on it drains its
///    *own* queued tasks, oldest first (caller-driven progress). Only own
///    tasks are eligible: they are work the rank must complete anyway, and
///    MPI requires non-blocking collectives to be initiated in the same
///    order on every rank, so draining in initiation order keeps peers
///    supplied with the contributions they block on. Running another
///    rank's collective could block the caller on contributions that are
///    themselves still queued,
///  - before a rank thread parks in any other blocking wait (wait_until,
///    wait.hpp), it checks whether another rank's task is executing on the
///    communicator of one of its rank's queued tasks — that task may be
///    blocked on exactly this contribution. If so, it runs its rank's
///    queued tasks oldest first up to and including that one (initiation
///    order may differ between communicators, so the awaited task can sit
///    behind one nobody waits on yet). Starting a task notifies the
///    communicator's members, so this check is wake-driven too. A thread
///    already executing a task starts no other (the outer task would then
///    wait on the inner one, whose peers may in turn wait on the outer),
///  - `test()` only runs the polled task inline when the pool is saturated,
///    so a freshly initiated operation keeps its asynchrony while a
///    test()-polling loop still guarantees progress,
///  - a finishing task notifies its initiating rank's eventcount, where
///    every waiter on it parks.
///
/// Failure interplay: revoking a communicator fails its queued-but-unstarted
/// tasks with XMPI_ERR_REVOKED (ulfm.cpp calls the sweep); killing a rank
/// (chaos / inject_failure) fails that rank's queued tasks with
/// XMPI_ERR_PROC_FAILED so no worker ever acts for a dead rank whose stack
/// buffers are gone; world teardown drains every task that still references
/// the world.
#pragma once

#include <cstddef>
#include <functional>

namespace xmpi {

class Comm;
class Request;
class World;

namespace detail {
struct RankContext;
}

namespace progress {

/// @brief Pool configuration. Applied by configure(); workers are
/// (re)started lazily on the next submission.
struct Config {
    /// Worker threads; 0 selects the default min(4, hardware_concurrency-1),
    /// clamped to at least 1.
    unsigned threads = 0;
    /// Queue slots; a submission finding the queue full runs inline on the
    /// initiating rank instead (counted as engine_inline_fallbacks).
    std::size_t queue_capacity = 1024;
};

/// @brief Replaces the engine configuration. Stops the current workers
/// (running tasks finish first; queued tasks stay queued and are picked up
/// by the new pool or by waiting callers). Safe to call between worlds or
/// mid-run.
void configure(Config config);

/// @brief The currently configured values (threads == 0 means default).
[[nodiscard]] Config current_config();

/// @brief The worker count a Config{.threads = 0} resolves to on this host.
[[nodiscard]] unsigned default_thread_count();

/// @brief Caller-driven progress: runs at most one of the calling rank's
/// own queued tasks inline (oldest first), unless the calling thread is
/// itself executing a task. Returns true iff a task was run. Used by
/// wait_until and by request pools to drain the engine while polling.
bool poll();

/// @brief Stops and joins the worker pool (running tasks finish first).
/// Queued tasks remain and are still completed by waiting callers; the pool
/// restarts lazily on the next submission.
void shutdown();

namespace detail {

/// @brief Enqueues @c body (returning an XMPI error code) as an engine task
/// on behalf of the calling rank and returns the request handle tracking it.
/// @c op names the operation for tracing spans; @c comm is the communicator
/// the task acts on (used to fail queued tasks on revocation).
Request* submit(char const* op, Comm* comm, std::function<int()> body);

/// @brief Like submit(), but runs on behalf of @c ctx instead of the calling
/// thread's context. Needed by partitioned sends, where the final
/// XMPI_Pready may arrive from a producer thread that is not the owning
/// rank: the task must still be attributed to (and failable with) the rank
/// that initiated the partitioned operation.
Request* submit_as(
    char const* op, Comm* comm, xmpi::detail::RankContext ctx, std::function<int()> body);

/// @brief As poll(), but runs the calling rank's oldest queued task only if
/// another rank's task is executing on the communicator of one of the
/// rank's queued tasks (and so may be blocked on it); repeated calls run
/// the queued tasks up to and including that one. Every blocking wait calls
/// it before parking (wait_until).
bool poll_awaited();

/// @brief Completes every queued-but-unstarted task on @c comm with
/// @c error (revocation sweep).
void fail_queued_for_comm(Comm* comm, int error);

/// @brief Completes every queued-but-unstarted task initiated by
/// @c world_rank of @c world with @c error (rank-death sweep).
void fail_queued_for_rank(World* world, int world_rank, int error);

/// @brief World teardown barrier: fails queued tasks of @c world and blocks
/// until no worker still executes a task referencing it.
void abandon_world(World* world);

} // namespace detail
} // namespace progress
} // namespace xmpi
