/// @file coll.hpp
/// @brief Internal declarations of the collective operations.
///
/// All collectives are implemented on top of the internal point-to-point
/// transport (collective context) with the textbook algorithms also used by
/// production MPI implementations, so the alpha/beta network model induces a
/// realistic cost structure (e.g. binomial bcast costs ~log2(p) * alpha).
///
/// Every collective has one builder (`X_call`) that turns its arguments into
/// a CollCall, and every call is driven in one of three forms: blocking
/// (run_coll), non-blocking (submit_coll) or persistent
/// (make_persistent_coll).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "xmpi/comm.hpp"
#include "xmpi/datatype.hpp"
#include "xmpi/op.hpp"
#include "xmpi/request.hpp"
#include "xmpi/tuning.hpp"

namespace xmpi::detail {

/// @brief Tags of the blocking collectives on the collective context: one
/// per kind keeps back-to-back different collectives unambiguous (same-kind
/// back-to-back is safe by the non-overtaking guarantee), and tolerates
/// ranks that interleave different kinds in different orders (a window
/// fence's barrier against another collective).
namespace coll_tag {
inline constexpr int barrier          = 1;
inline constexpr int bcast            = 2;
inline constexpr int gather           = 3;
inline constexpr int scatter          = 4;
inline constexpr int allgather        = 5;
inline constexpr int alltoall         = 6;
inline constexpr int reduce           = 7;
inline constexpr int scan             = 8;
inline constexpr int neighbor         = 9;
inline constexpr int comm_create      = 11;
inline constexpr int reduce_scatter   = 12;
} // namespace coll_tag

/// @brief First tag of the sequence channels; above every kind tag, so a
/// non-blocking or persistent collective never matches a blocking one.
inline constexpr int first_sequence_tag = 16;

/// @brief Matching channel of one collective call: its tag on the
/// communicator's collective context. Every message an algorithm sends or
/// receives carries it. A blocking call's tag is its kind (coll_tag); a
/// non-blocking or persistent call's is a sequence tag drawn at initiation.
struct CollChannel {
    int tag;
};

/// @brief Draws the calling rank's next sequence channel on @c comm.
/// Collectives are initiated in the same order on all ranks (MPI rule), so
/// the i-th draw is the same channel everywhere.
[[nodiscard]] inline CollChannel sequence_channel(Comm& comm) {
    return CollChannel{first_sequence_tag + comm.next_collective_sequence()};
}

/// @brief Reusable scratch for reduction collectives. One-shot calls
/// allocate it on the stack; persistent requests hoist one instance into
/// the request so restarts skip the per-round allocations.
struct ReduceScratch {
    std::vector<std::byte> accumulator;
    std::vector<std::byte> incoming;
};

/// @brief Uniform argument record for algorithm run() hooks, covering every
/// collective shape. Builders fill the fields their collective has;
/// algorithms read only the fields their op defines.
struct CollCtx {
    Comm* comm = nullptr;
    CollChannel channel{0};
    void const* sendbuf = nullptr; ///< IN_PLACE already resolved by the builder
    void* recvbuf = nullptr;
    std::size_t sendcount = 0;
    std::size_t recvcount = 0;
    Datatype const* sendtype = nullptr;
    Datatype const* recvtype = nullptr;
    Op const* op = nullptr;
    int root = 0;
    bool in_place = false;  ///< caller passed IN_PLACE (algorithms that must stage check this)
    bool exclusive = false; ///< scan only (exscan semantics)
    ReduceScratch* scratch = nullptr; ///< optional hoisted scratch (persistent allreduce)
    /// @name v-variant arrays (alltoallv/w, neighbor)
    /// @{
    int const* sendcounts = nullptr;
    int const* sdispls = nullptr;
    int const* recvcounts = nullptr;
    int const* rdispls = nullptr;
    Datatype const* const* sendtypes = nullptr; ///< alltoallw only
    Datatype const* const* recvtypes = nullptr; ///< alltoallw only
    /// @}
};

/// @brief One collective call: the operation, its algorithm arguments and
/// its selection inputs.
struct CollCall {
    tuning::CollOp op;
    CollCtx ctx;
    tuning::SelectCtx sctx;
};

/// @name The three drivers of a built call
/// @{
/// @brief Blocking: entry check, then select and run. Composite algorithms
/// run their phases through it on their caller's channel.
int run_coll(CollCall call);
/// @brief Non-blocking: the same blocking run as a task on the progress
/// engine, under the initiating rank's context.
[[nodiscard]] Request* submit_coll(char const* name, CollCall const& call);
/// @brief Persistent (persistent.cpp): selects the algorithm once, here;
/// every round runs the entry check plus that algorithm. @c scratch is the
/// ReduceScratch the call points at, if any; the request keeps it alive.
[[nodiscard]] Request* make_persistent_coll(
    char const* name, CollCall const& call, std::shared_ptr<ReduceScratch> scratch = nullptr);
/// @}

/// @name Builders, one per collective
/// The channel comes last: a blocking call keeps the default, its kind tag;
/// non-blocking and persistent forms pass a sequence_channel().
/// @{
[[nodiscard]] CollCall barrier_call(Comm& comm, CollChannel channel = {coll_tag::barrier});
[[nodiscard]] CollCall bcast_call(
    Comm& comm, void* buffer, std::size_t count, Datatype const& type, int root,
    CollChannel channel = {coll_tag::bcast});
[[nodiscard]] CollCall gather_call(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, std::size_t recvcount, Datatype const& recvtype, int root,
    CollChannel channel = {coll_tag::gather});
[[nodiscard]] CollCall gatherv_call(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, int const* recvcounts, int const* displs, Datatype const& recvtype, int root,
    CollChannel channel = {coll_tag::gather});
[[nodiscard]] CollCall scatter_call(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, std::size_t recvcount, Datatype const& recvtype, int root,
    CollChannel channel = {coll_tag::scatter});
[[nodiscard]] CollCall scatterv_call(
    Comm& comm, void const* sendbuf, int const* sendcounts, int const* displs,
    Datatype const& sendtype, void* recvbuf, std::size_t recvcount, Datatype const& recvtype,
    int root, CollChannel channel = {coll_tag::scatter});
[[nodiscard]] CollCall allgather_call(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, std::size_t recvcount, Datatype const& recvtype,
    CollChannel channel = {coll_tag::allgather});
[[nodiscard]] CollCall allgatherv_call(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, int const* recvcounts, int const* displs, Datatype const& recvtype,
    CollChannel channel = {coll_tag::allgather});
[[nodiscard]] CollCall alltoall_call(
    Comm& comm, void const* sendbuf, std::size_t sendcount, Datatype const& sendtype,
    void* recvbuf, std::size_t recvcount, Datatype const& recvtype,
    CollChannel channel = {coll_tag::alltoall});
[[nodiscard]] CollCall alltoallv_call(
    Comm& comm, void const* sendbuf, int const* sendcounts, int const* sdispls,
    Datatype const& sendtype, void* recvbuf, int const* recvcounts, int const* rdispls,
    Datatype const& recvtype, CollChannel channel = {coll_tag::alltoall});
[[nodiscard]] CollCall alltoallw_call(
    Comm& comm, void const* sendbuf, int const* sendcounts, int const* sdispls,
    Datatype const* const* sendtypes, void* recvbuf, int const* recvcounts, int const* rdispls,
    Datatype const* const* recvtypes, CollChannel channel = {coll_tag::alltoall});
[[nodiscard]] CollCall neighbor_alltoallv_call(
    Comm& comm, void const* sendbuf, int const* sendcounts, int const* sdispls,
    Datatype const& sendtype, void* recvbuf, int const* recvcounts, int const* rdispls,
    Datatype const& recvtype, CollChannel channel = {coll_tag::neighbor});
[[nodiscard]] CollCall reduce_call(
    Comm& comm, void const* sendbuf, void* recvbuf, std::size_t count, Datatype const& type,
    Op const& op, int root, CollChannel channel = {coll_tag::reduce});
[[nodiscard]] CollCall allreduce_call(
    Comm& comm, void const* sendbuf, void* recvbuf, std::size_t count, Datatype const& type,
    Op const& op, CollChannel channel = {coll_tag::reduce}, ReduceScratch* scratch = nullptr);
[[nodiscard]] CollCall reduce_scatter_block_call(
    Comm& comm, void const* sendbuf, void* recvbuf, std::size_t recvcount, Datatype const& type,
    Op const& op, CollChannel channel = {coll_tag::reduce_scatter});
[[nodiscard]] CollCall scan_call(
    Comm& comm, void const* sendbuf, void* recvbuf, std::size_t count, Datatype const& type,
    Op const& op, bool exclusive, CollChannel channel = {coll_tag::scan});
/// @}

/// @brief Non-blocking barrier (a shared arrival counter, no messages).
Request* coll_ibarrier(Comm& comm);

/// @name Communicator management (collective over the parent communicator)
/// @{
int comm_dup(Comm& comm, Comm** newcomm);
int comm_split(Comm& comm, int color, int key, Comm** newcomm);
int comm_create(Comm& comm, Group const& group, Comm** newcomm);
int dist_graph_create_adjacent(
    Comm& comm, int indegree, int const* sources, int outdegree, int const* destinations,
    Comm** newcomm);
/// @}

/// @name ULFM
/// @{
int ulfm_revoke(Comm& comm);
int ulfm_shrink(Comm& comm, Comm** newcomm);
int ulfm_agree(Comm& comm, int* flag);
/// @}

} // namespace xmpi::detail
