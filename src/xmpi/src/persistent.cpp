/// @file persistent.cpp
/// @brief Persistent and partitioned request implementations.
///
/// A persistent request separates the *binding* of an operation (arguments,
/// derived shape, selected algorithm — paid once at init) from its
/// *execution* (paid per XMPI_Start). Each start creates a fresh inner
/// one-shot request carrying the completion semantics; completion makes the
/// persistent request inactive again instead of consuming it.
#include "persistent.hpp"

#include <functional>
#include <utility>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"
#include "xmpi/progress.hpp"
#include "xmpi/tuning.hpp"

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

/// @brief Persistent collective: every start opens a fresh matching channel
/// (nbc context + per-initiation sequence, so starts order like NBC
/// initiations across ranks) but defers execution. wait() runs the stored
/// body INLINE on the waiting thread — the same wire path as the blocking
/// one-shot collective, so a start/wait round costs only the Start
/// bookkeeping on top of the collective itself (no progress-engine queue
/// and wakeup latency). A test()/peek() poll must not block, so polling
/// instead submits the body to the shared progress engine once; completion
/// then follows the usual inner-request path. Mixed usage composes: a rank
/// waiting inline rendezvouses with a peer whose body runs on an engine
/// worker, exactly as blocking and non-blocking collectives already do.
class PersistentCollRequest final : public PersistentRequest {
public:
    PersistentCollRequest(char const* op, Comm* comm, std::function<int(CollChannel)> body)
        : op_(op),
          comm_(comm),
          body_(std::move(body)) {
        // The matching channel is part of the binding: allocated once at
        // init (collective — every rank draws the same sequence) and reused
        // by every restart. Safe for the same reason blocking collectives
        // reuse one fixed tag per kind: transport matching is FIFO per
        // (source, context, tag), and a request cannot restart before its
        // previous round completed locally.
        channel_ = CollChannel{comm->nbc_context(), comm->next_nbc_sequence()};
    }

    ~PersistentCollRequest() override {
        // Freed while started but never waited or polled: peers may already
        // be inside this round's rendezvous — run our part before teardown.
        if (active_ && inner_ == nullptr) {
            (void)body_(channel_);
            active_ = false;
        }
    }

    void wait(Status& status) override {
        if (active_ && inner_ == nullptr) {
            int const err = body_(channel_);
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
        // Nothing per start: the channel was bound at init, and the round
        // itself runs lazily — inline at wait() or on the progress engine
        // at the first test()/peek().
        return XMPI_SUCCESS;
    }

private:
    void ensure_submitted() {
        if (active_ && inner_ == nullptr) {
            inner_.reset(
                progress::detail::submit(op_, comm_, [body = body_, channel = channel_] {
                    return body(channel);
                }));
        }
    }

    char const* op_;
    Comm* comm_;
    std::function<int(CollChannel)> body_;
    CollChannel channel_{};
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

// ---------------------------------------------------------------------------
// Persistent collectives
// ---------------------------------------------------------------------------

Request* make_persistent_bcast(
    Comm& comm, void* buffer, std::size_t count, Datatype const& type, int root) {
    auto* comm_ptr = &comm;
    auto const* type_ptr = &type;
    // Algorithm selection is part of the binding: the entry chosen here
    // (including one forced at init time) is replayed by every restart, so a
    // round never re-consults select().
    CollAlgo const* const algo = select_coll_algo(
        tuning::CollOp::bcast, make_select_ctx(comm, type.packed_size(count)), nullptr);
    return new PersistentCollRequest(
        "bcast_init", comm_ptr,
        [comm_ptr, buffer, count, type_ptr, root, algo](CollChannel channel) {
            if (int const err = check_collective(*comm_ptr); err != XMPI_SUCCESS) {
                return err;
            }
            CollCtx ctx;
            ctx.comm = comm_ptr;
            ctx.channel = channel;
            ctx.recvbuf = buffer;
            ctx.recvcount = count;
            ctx.recvtype = type_ptr;
            ctx.root = root;
            return run_coll_algo(*algo, ctx);
        });
}

Request* make_persistent_allreduce(
    Comm& comm, void const* sendbuf, void* recvbuf, std::size_t count, Datatype const& type,
    Op const& op) {
    auto* comm_ptr = &comm;
    auto const* type_ptr = &type;
    auto const* op_ptr = &op;
    // Scratch is hoisted into the request: restarts after the first run
    // allocation-free. A persistent request never restarts concurrently with
    // its own completion, so the shared scratch is never contended.
    auto scratch = std::make_shared<ReduceScratch>();
    CollAlgo const* const algo = select_coll_algo(
        tuning::CollOp::allreduce,
        make_select_ctx(comm, type.packed_size(count), op.commutative()), nullptr);
    return new PersistentCollRequest(
        "allreduce_init", comm_ptr,
        [comm_ptr, sendbuf, recvbuf, count, type_ptr, op_ptr, scratch,
         algo](CollChannel channel) {
            if (int const err = check_collective(*comm_ptr); err != XMPI_SUCCESS) {
                return err;
            }
            CollCtx ctx;
            ctx.comm = comm_ptr;
            ctx.channel = channel;
            ctx.in_place = sendbuf == IN_PLACE;
            ctx.sendbuf = ctx.in_place ? recvbuf : sendbuf;
            ctx.recvbuf = recvbuf;
            ctx.sendcount = count;
            ctx.sendtype = type_ptr;
            ctx.op = op_ptr;
            ctx.scratch = scratch.get();
            return run_coll_algo(*algo, ctx);
        });
}

Request* make_persistent_alltoall(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, std::size_t recvcount, Datatype const& recvtype) {
    // The alltoallv shape (counts and displacements per peer) is derived
    // exactly once here; restarts replay it without recomputation.
    struct Shape {
        std::vector<int> sendcounts, sdispls, recvcounts, rdispls;
    };
    auto shape = std::make_shared<Shape>();
    int const p = comm.size();
    shape->sendcounts.reserve(static_cast<std::size_t>(p));
    shape->sdispls.reserve(static_cast<std::size_t>(p));
    shape->recvcounts.reserve(static_cast<std::size_t>(p));
    shape->rdispls.reserve(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
        shape->sendcounts.push_back(static_cast<int>(sendcount));
        shape->sdispls.push_back(i * static_cast<int>(sendcount));
        shape->recvcounts.push_back(static_cast<int>(recvcount));
        shape->rdispls.push_back(i * static_cast<int>(recvcount));
    }
    auto* comm_ptr = &comm;
    auto const* send_type = &sendtype;
    auto const* recv_type = &recvtype;
    CollAlgo const* const algo = select_coll_algo(
        tuning::CollOp::alltoallv, make_select_ctx(comm, recvtype.packed_size(recvcount)),
        nullptr);
    return new PersistentCollRequest(
        "alltoall_init", comm_ptr,
        [comm_ptr, sendbuf, send_type, recvbuf, recv_type, shape, algo](CollChannel channel) {
            if (int const err = check_collective(*comm_ptr); err != XMPI_SUCCESS) {
                return err;
            }
            CollCtx ctx;
            ctx.comm = comm_ptr;
            ctx.channel = channel;
            ctx.in_place = sendbuf == IN_PLACE;
            ctx.sendbuf = sendbuf;
            ctx.sendcounts = shape->sendcounts.data();
            ctx.sdispls = shape->sdispls.data();
            ctx.sendtype = send_type;
            ctx.recvbuf = recvbuf;
            ctx.recvcounts = shape->recvcounts.data();
            ctx.rdispls = shape->rdispls.data();
            ctx.recvtype = recv_type;
            return run_coll_algo(*algo, ctx);
        });
}

Request* make_persistent_barrier(Comm& comm) {
    auto* comm_ptr = &comm;
    CollAlgo const* const algo =
        select_coll_algo(tuning::CollOp::barrier, make_select_ctx(comm, 0), nullptr);
    return new PersistentCollRequest(
        "barrier_init", comm_ptr, [comm_ptr, algo](CollChannel channel) {
            if (int const err = check_collective(*comm_ptr); err != XMPI_SUCCESS) {
                return err;
            }
            CollCtx ctx;
            ctx.comm = comm_ptr;
            ctx.channel = channel;
            return run_coll_algo(*algo, ctx);
        });
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
