/// @file persistent.cpp
/// @brief Persistent and partitioned request implementations.
///
/// A persistent request separates the *binding* of an operation (arguments,
/// derived shape, selected algorithm — paid once at init) from its
/// *execution* (paid per XMPI_Start). Each start creates a fresh inner
/// one-shot request carrying the completion semantics; completion makes the
/// persistent request inactive again instead of consuming it.
#include "persistent.hpp"

#include <memory>
#include <utility>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"
#include "xmpi/progress.hpp"

namespace xmpi::detail {

// ---------------------------------------------------------------------------
// PersistentRequest lifecycle (base class declared in xmpi/request.hpp)
// ---------------------------------------------------------------------------

PersistentRequest::~PersistentRequest() {
    if (active_ && inner_ != nullptr && !inner_->cancel()) {
        Status status;
        inner_->wait(status);
    }
}

int PersistentRequest::start() {
    if (active_) {
        return XMPI_ERR_REQUEST;
    }
    if (int const err = do_start(); err != XMPI_SUCCESS) {
        return err;
    }
    active_ = true;
    ++restarts_;
    return XMPI_SUCCESS;
}

bool PersistentRequest::test(Status& status) {
    if (!active_) {
        status = inactive_status();
        return true;
    }
    Status inner_status;
    if (inner_ == nullptr || !inner_->test(inner_status)) {
        return false;
    }
    inner_.reset();
    active_ = false;
    status = inner_status;
    return true;
}

bool PersistentRequest::peek() {
    if (!active_) {
        return true;
    }
    return inner_ != nullptr && inner_->peek();
}

void PersistentRequest::wait(Status& status) {
    if (!active_) {
        status = inactive_status();
        return;
    }
    inner_->wait(status);
    inner_.reset();
    active_ = false;
}

bool PersistentRequest::cancel() {
    return active_ && inner_ != nullptr && inner_->cancel();
}

Status PersistentRequest::inactive_status() {
    return Status{PROC_NULL, ANY_TAG, XMPI_SUCCESS, 0};
}

// ---------------------------------------------------------------------------
// Persistent point-to-point
// ---------------------------------------------------------------------------

namespace {

class PersistentSendRequest final : public PersistentRequest {
public:
    PersistentSendRequest(
        Comm* comm, void const* buf, std::size_t count, Datatype const* type, int dest, int tag)
        : comm_(comm),
          buf_(buf),
          count_(count),
          type_(type),
          dest_(dest),
          tag_(tag) {}

protected:
    int do_start() override {
        if (int const err = transport_send(
                *comm_, dest_, tag_, comm_->pt2pt_context(), buf_, count_, *type_);
            err != XMPI_SUCCESS) {
            return err;
        }
        inner_ = std::make_unique<CompletedRequest>(Status{UNDEFINED, UNDEFINED, XMPI_SUCCESS, 0});
        return XMPI_SUCCESS;
    }

private:
    Comm* comm_;
    void const* buf_;
    std::size_t count_;
    Datatype const* type_;
    int dest_;
    int tag_;
};

class PersistentRecvRequest final : public PersistentRequest {
public:
    PersistentRecvRequest(
        Comm* comm, void* buf, std::size_t count, Datatype const* type, int source, int tag)
        : comm_(comm),
          buf_(buf),
          count_(count),
          type_(type),
          source_(source),
          tag_(tag) {}

protected:
    int do_start() override {
        Request* request = nullptr;
        if (int const err = transport_irecv(
                *comm_, source_, tag_, comm_->pt2pt_context(), buf_, count_, *type_, &request);
            err != XMPI_SUCCESS) {
            return err;
        }
        inner_.reset(request);
        return XMPI_SUCCESS;
    }

private:
    Comm* comm_;
    void* buf_;
    std::size_t count_;
    Datatype const* type_;
    int source_;
    int tag_;
};

/// @brief Persistent collective: the call (arguments, channel, selected
/// algorithm) is bound once at init and replayed by every start. The
/// sequence channel drawn at init is reused by every restart: safe for the
/// same reason blocking collectives reuse one fixed tag per kind — transport
/// matching is FIFO per (source, context, tag), and a request cannot restart
/// before its previous round completed locally.
///
/// A start defers execution. wait() runs the round INLINE on the waiting
/// thread — the same wire path as the blocking one-shot collective, so a
/// start/wait round costs only the Start bookkeeping on top of the
/// collective itself (no progress-engine queue and wakeup latency). A
/// test()/peek() poll must not block, so polling instead submits the round
/// to the shared progress engine once; completion then follows the usual
/// inner-request path. Mixed usage composes: a rank waiting inline
/// rendezvouses with a peer whose round runs on an engine worker, exactly
/// as blocking and non-blocking collectives already do.
class PersistentCollRequest final : public PersistentRequest {
public:
    PersistentCollRequest(
        char const* name, CollCall const& call, std::shared_ptr<ReduceScratch> scratch)
        : name_(name),
          call_(call),
          // Algorithm selection is part of the binding: the entry chosen
          // here (including one forced at init time) is replayed by every
          // restart, so a round never re-consults select().
          algo_(select_coll_algo(call.op, call.sctx, nullptr)),
          scratch_(std::move(scratch)) {}

    ~PersistentCollRequest() override {
        // Freed while started but never waited or polled: peers may already
        // be inside this round's rendezvous — run our part before teardown.
        if (active_ && inner_ == nullptr) {
            (void)run_round(call_.ctx, *algo_);
            active_ = false;
        }
    }

    void wait(Status& status) override {
        if (active_ && inner_ == nullptr) {
            int const err = run_round(call_.ctx, *algo_);
            status = Status{UNDEFINED, UNDEFINED, err, 0};
            active_ = false;
            return;
        }
        PersistentRequest::wait(status);
    }

    bool test(Status& status) override {
        ensure_submitted();
        return PersistentRequest::test(status);
    }

    [[nodiscard]] bool peek() override {
        ensure_submitted();
        return PersistentRequest::peek();
    }

protected:
    int do_start() override {
        // Nothing per start: the round runs lazily — inline at wait() or on
        // the progress engine at the first test()/peek().
        return XMPI_SUCCESS;
    }

private:
    static int run_round(CollCtx ctx, CollAlgo const& algo) {
        if (int const err = check_collective(*ctx.comm); err != XMPI_SUCCESS) {
            return err;
        }
        return run_coll_algo(algo, ctx);
    }

    void ensure_submitted() {
        if (active_ && inner_ == nullptr) {
            // The task owns copies of what it reads (the scratch included),
            // so it may outlive a request freed while it is queued.
            inner_.reset(progress::detail::submit(
                name_, call_.ctx.comm,
                [ctx = call_.ctx, algo = algo_, scratch = scratch_] {
                    return run_round(ctx, *algo);
                }));
        }
    }

    char const* name_;
    CollCall call_;
    CollAlgo const* algo_;
    std::shared_ptr<ReduceScratch> scratch_;
};

} // namespace

Request* make_persistent_send(
    Comm& comm, void const* buf, std::size_t count, Datatype const& type, int dest, int tag) {
    return new PersistentSendRequest(&comm, buf, count, &type, dest, tag);
}

Request* make_persistent_recv(
    Comm& comm, void* buf, std::size_t count, Datatype const& type, int source, int tag) {
    return new PersistentRecvRequest(&comm, buf, count, &type, source, tag);
}

Request* make_persistent_coll(
    char const* name, CollCall const& call, std::shared_ptr<ReduceScratch> scratch) {
    return new PersistentCollRequest(name, call, std::move(scratch));
}

// ---------------------------------------------------------------------------
// Partitioned point-to-point
// ---------------------------------------------------------------------------

PartitionedSendRequest::PartitionedSendRequest(
    Comm* comm, int partitions, std::size_t part_count, Datatype const* type, void const* buf,
    int dest, int tag)
    : comm_(comm),
      partitions_(partitions),
      part_count_(part_count),
      type_(type),
      buf_(buf),
      dest_(dest),
      tag_(tag),
      ctx_(current_context()),
      ready_(std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(partitions))) {}

int PartitionedSendRequest::do_start() {
    for (int i = 0; i < partitions_; ++i) {
        ready_[static_cast<std::size_t>(i)].store(false, std::memory_order_relaxed);
    }
    ready_count_.store(0, std::memory_order_relaxed);
    started_.store(true, std::memory_order_release);
    return XMPI_SUCCESS;
}

int PartitionedSendRequest::pready(int partition) {
    if (partition < 0 || partition >= partitions_) {
        return XMPI_ERR_ARG;
    }
    if (!started_.load(std::memory_order_acquire)) {
        return XMPI_ERR_REQUEST;
    }
    if (ready_[static_cast<std::size_t>(partition)].exchange(true, std::memory_order_acq_rel)) {
        return XMPI_ERR_ARG; // partition marked ready twice in one epoch
    }
    if (ready_count_.fetch_add(1, std::memory_order_acq_rel) + 1 != partitions_) {
        return XMPI_SUCCESS;
    }
    // Last partition: ship the whole buffer as one message, attributed to
    // the initiating rank even when this thread is a foreign producer.
    Comm* comm = comm_;
    void const* buf = buf_;
    std::size_t const total = part_count_ * static_cast<std::size_t>(partitions_);
    Datatype const* type = type_;
    int const dest = dest_;
    int const tag = tag_;
    Request* request = progress::detail::submit_as("psend", comm_, ctx_, [=] {
        return transport_send(*comm, dest, tag, comm->pt2pt_context(), buf, total, *type);
    });
    {
        std::lock_guard lock(inner_mutex_);
        inner_.reset(request);
    }
    ctx_.world->events(ctx_.world_rank).notify();
    return XMPI_SUCCESS;
}

bool PartitionedSendRequest::test(Status& status) {
    if (!active_) {
        status = inactive_status();
        return true;
    }
    std::lock_guard lock(inner_mutex_);
    if (inner_ == nullptr) {
        return false; // partitions still outstanding
    }
    Status inner_status;
    if (!inner_->test(inner_status)) {
        return false;
    }
    inner_.reset();
    started_.store(false, std::memory_order_release);
    active_ = false;
    status = inner_status;
    return true;
}

bool PartitionedSendRequest::peek() {
    if (!active_) {
        return true;
    }
    std::lock_guard lock(inner_mutex_);
    return inner_ != nullptr && inner_->peek();
}

void PartitionedSendRequest::wait(Status& status) {
    // The inner request appears asynchronously (installed by whichever
    // thread delivers the last pready, which then notifies this rank).
    std::unique_lock lock(inner_mutex_);
    wait_locked(ctx_, lock, [&] { return !active_ || inner_ != nullptr; });
    if (!active_) {
        status = inactive_status();
        return;
    }
    auto inner = std::move(inner_);
    lock.unlock();
    inner->wait(status);
    started_.store(false, std::memory_order_release);
    active_ = false;
}

PartitionedRecvRequest::PartitionedRecvRequest(
    Comm* comm, int partitions, std::size_t part_count, Datatype const* type, void* buf,
    int source, int tag)
    : comm_(comm),
      partitions_(partitions),
      part_count_(part_count),
      type_(type),
      buf_(buf),
      source_(source),
      tag_(tag) {}

int PartitionedRecvRequest::do_start() {
    Request* request = nullptr;
    std::size_t const total = part_count_ * static_cast<std::size_t>(partitions_);
    if (int const err = transport_irecv(
            *comm_, source_, tag_, comm_->pt2pt_context(), buf_, total, *type_, &request);
        err != XMPI_SUCCESS) {
        return err;
    }
    inner_.reset(request);
    return XMPI_SUCCESS;
}

int PartitionedRecvRequest::parrived(int partition, int* flag) {
    if (partition < 0 || partition >= partitions_) {
        return XMPI_ERR_ARG;
    }
    if (!active_) {
        *flag = 1; // completed epoch: everything has arrived
        return XMPI_SUCCESS;
    }
    Status probe_status;
    *flag = inner_ != nullptr && inner_->test(probe_status) ? 1 : 0;
    return XMPI_SUCCESS;
}

} // namespace xmpi::detail
