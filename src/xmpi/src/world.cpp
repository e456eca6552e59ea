#include "xmpi/world.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "kassert/kassert.hpp"
#include "xmpi/chaos.hpp"
#include "xmpi/elastic.hpp"
#include "xmpi/progress.hpp"
#include "xmpi/tuning.hpp"

namespace xmpi {

World::World(int size, NetworkModel model, int capacity)
    : size_(size),
      capacity_(capacity > 0 ? capacity : size),
      model_(model),
      payload_pool_(capacity > 0 ? capacity : size),
      rank_slots_(size) {
    KASSERT(size > 0, "a world needs at least one rank");
    KASSERT(capacity == 0 || capacity >= size, "elastic capacity must cover the initial ranks");
    // The lock-free structures (rings, payload pool, failed flags) cannot be
    // resized under concurrent readers, so an elastic world allocates them at
    // capacity up front; only rank slots [0, rank_slots_) ever exist.
    rings_ = std::make_unique<detail::RingRegistry>(capacity_, tuning::transport().ring_capacity);
    events_ = std::make_unique<detail::Eventcount[]>(static_cast<std::size_t>(capacity_));
    mailboxes_.resize(static_cast<std::size_t>(capacity_));
    counters_.resize(static_cast<std::size_t>(capacity_));
    for (int rank = 0; rank < size; ++rank) {
        counters_[static_cast<std::size_t>(rank)] = std::make_unique<profile::RankCounters>();
        mailboxes_[static_cast<std::size_t>(rank)] = std::make_unique<detail::Mailbox>(
            this, &payload_pool_, counters_[static_cast<std::size_t>(rank)].get(), &events(rank),
            rank, size);
    }
    failed_flags_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(capacity_));
    for (int rank = 0; rank < capacity_; ++rank) {
        failed_flags_[static_cast<std::size_t>(rank)].store(false, std::memory_order_relaxed);
    }
    std::vector<int> members(static_cast<std::size_t>(size));
    for (int rank = 0; rank < size; ++rank) {
        members[static_cast<std::size_t>(rank)] = rank;
    }
    world_comm_ = new Comm(this, std::move(members));
    if (capacity > 0) {
        // Elastic world: the world comm is the epoch-0 membership comm. The
        // elastic state holds its own reference (released with the retired
        // epochs in ~World), so world_comm() stays valid for the world's
        // whole lifetime even after it is superseded.
        elastic_ = std::make_unique<detail::ElasticState>();
        elastic_->members.assign(static_cast<std::size_t>(capacity_),
                                 detail::MemberState::unused);
        for (int rank = 0; rank < size; ++rank) {
            elastic_->members[static_cast<std::size_t>(rank)] = detail::MemberState::active;
        }
        elastic_->next_slot = size;
        world_comm_->set_epoch_gate(0);
        register_context_epoch(world_comm_->pt2pt_context(), 0);
        register_context_epoch(world_comm_->collective_context(), 0);
        world_comm_->retain();
        elastic_->current = world_comm_;
    }
    // A fault plan staged via chaos::arm_next_world() is armed here, before
    // any rank thread exists, so even a rank's first call is injectable.
    chaos::detail::adopt_pending_plan(*this);
}

void World::install_chaos(std::unique_ptr<chaos::Engine> engine) {
    chaos::Engine* const raw = engine.get();
    {
        std::lock_guard lock(chaos_mutex_);
        chaos_engines_.push_back(std::move(engine));
    }
    chaos_engine_.store(raw, std::memory_order_release);
}

World::~World() {
    // Progress-engine tasks hold pointers into this world (comm, mailboxes,
    // counters, the initiators' buffers): fail whatever is still queued and
    // wait out anything still executing before tearing the world down.
    progress::detail::abandon_world(this);
    if (elastic_ != nullptr) {
        // Superseded epoch comms are parked (not released) at each
        // transition, because aborting operations may still be unwinding
        // through them; with all rank threads gone, release them now.
        for (Comm* comm: elastic_->retired) {
            comm->release();
        }
        if (elastic_->current != nullptr) {
            elastic_->current->release();
        }
    }
    world_comm_->release();
}

void World::mark_failed(int world_rank) {
    bool expected = false;
    if (failed_flags_[static_cast<std::size_t>(world_rank)].compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        num_failed_.fetch_add(1, std::memory_order_release);
        // Engine tasks the dead rank queued but never started must not run:
        // they would act for a rank whose stack (and buffers) are gone.
        progress::detail::fail_queued_for_rank(this, world_rank, XMPI_ERR_PROC_FAILED);
        if (elastic_ != nullptr) {
            // A failure is a membership transition request like any other;
            // epoch_sync folds it into the next epoch.
            transition_pending_.store(true, std::memory_order_release);
        }
    }
    wake_all();
}

void World::wake_all() {
    int const slots = rank_slots();
    for (int rank = 0; rank < slots; ++rank) {
        events(rank).notify();
    }
}

void World::kill_current_rank() {
    int const rank = detail::current_world_rank();
    mark_failed(rank);
    throw RankKilled{rank};
}

void World::attach_current_thread(int world_rank) {
    auto& context = detail::current_context();
    KASSERT(context.world == nullptr, "thread already attached to a world");
    context.world = this;
    context.world_rank = world_rank;
}

void World::detach_current_thread() {
    auto& context = detail::current_context();
    context.world = nullptr;
    context.world_rank = UNDEFINED;
}

void World::run(int size, std::function<void()> rank_main, NetworkModel model) {
    run_ranked(size, [&](int) { rank_main(); }, std::move(model));
}

void World::run_ranked(int size, std::function<void(int)> rank_main, NetworkModel model) {
    World world(size, model);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(size));
    std::exception_ptr first_exception;
    std::mutex exception_mutex;

    for (int rank = 0; rank < size; ++rank) {
        threads.emplace_back([&, rank] {
            world.attach_current_thread(rank);
            try {
                rank_main(rank);
            } catch (RankKilled const&) {
                // Injected failure: the rank is already marked failed.
            } catch (...) {
                // A rank died with an exception: record it and mark the rank
                // failed so the surviving ranks error out instead of
                // deadlocking on it.
                {
                    std::lock_guard lock(exception_mutex);
                    if (!first_exception) {
                        first_exception = std::current_exception();
                    }
                }
                world.mark_failed(rank);
            }
            world.detach_current_thread();
        });
    }
    for (auto& thread: threads) {
        thread.join();
    }
    if (first_exception) {
        std::rethrow_exception(first_exception);
    }
}

namespace detail {

RankContext& current_context() {
    thread_local RankContext context;
    return context;
}

World& current_world() {
    auto& context = current_context();
    if (context.world == nullptr) {
        throw UsageError("XMPI called outside a running world (no rank context)");
    }
    return *context.world;
}

int current_world_rank() {
    auto& context = current_context();
    if (context.world == nullptr) {
        throw UsageError("XMPI called outside a running world (no rank context)");
    }
    return context.world_rank;
}

Comm* current_world_comm() {
    return current_world().world_comm();
}

} // namespace detail

void inject_failure() {
    detail::current_world().kill_current_rank();
}

double wtime() {
    auto const now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(now).count();
}

char const* error_string(int error_code) {
    switch (error_code) {
        case XMPI_SUCCESS:
            return "success";
        case XMPI_ERR_BUFFER:
            return "invalid buffer";
        case XMPI_ERR_COUNT:
            return "invalid count";
        case XMPI_ERR_TYPE:
            return "invalid datatype";
        case XMPI_ERR_TAG:
            return "invalid tag";
        case XMPI_ERR_COMM:
            return "invalid communicator";
        case XMPI_ERR_RANK:
            return "invalid rank";
        case XMPI_ERR_REQUEST:
            return "invalid request";
        case XMPI_ERR_ROOT:
            return "invalid root";
        case XMPI_ERR_GROUP:
            return "invalid group";
        case XMPI_ERR_OP:
            return "invalid reduction operation";
        case XMPI_ERR_TOPOLOGY:
            return "invalid topology";
        case XMPI_ERR_TRUNCATE:
            return "message truncated on receive";
        case XMPI_ERR_INTERN:
            return "internal error";
        case XMPI_ERR_PENDING:
            return "operation pending";
        case XMPI_ERR_PROC_FAILED:
            return "a peer process has failed";
        case XMPI_ERR_REVOKED:
            return "communicator has been revoked";
        case XMPI_ERR_ARG:
            return "invalid argument";
        case XMPI_ERR_OTHER:
            return "known error not in this list";
        case XMPI_ERR_WIN:
            return "invalid window";
        case XMPI_ERR_DISP:
            return "invalid displacement";
        case XMPI_ERR_RMA_SYNC:
            return "RMA synchronization misuse (wrong or missing epoch)";
        case XMPI_ERR_RMA_RANGE:
            return "RMA access outside the exposed window memory";
        case XMPI_ERR_IN_STATUS:
            return "error code in one or more of the returned statuses";
        case XMPI_ERR_EPOCH:
            return "communicator belongs to a superseded membership epoch";
        default:
            return "unknown error";
    }
}

} // namespace xmpi
