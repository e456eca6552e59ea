/// @file transport.hpp
/// @brief Internal transport helpers shared by the p2p API and the
/// collective algorithms. Not installed; xmpi-internal only.
#pragma once

#include <memory>

#include "coll.hpp"
#include "xmpi/comm.hpp"
#include "xmpi/datatype.hpp"
#include "xmpi/error.hpp"
#include "xmpi/mailbox.hpp"
#include "xmpi/request.hpp"
#include "xmpi/status.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

/// @brief Result of a pre-flight check on a peer: XMPI_SUCCESS, or the error
/// class to report (revoked communicator / failed peer).
int check_peer(Comm const& comm, int peer_comm_rank_or_any);

/// @brief Packs and delivers one message into the destination's mailbox.
/// Charges the network model and the profiling byte counters. @c context
/// selects the matching space (pt2pt or collective).
int transport_send(
    Comm& comm, int dest, int tag, int context, void const* buf, std::size_t count,
    Datatype const& type, std::shared_ptr<SyncHandle> sync = nullptr);

/// @brief Blocking receive; aborts with an error code if the communicator is
/// revoked or a relevant peer fails while waiting.
int transport_recv(
    Comm& comm, int source, int tag, int context, void* buf, std::size_t count,
    Datatype const& type, Status* status);

/// @brief Posts a non-blocking receive into @c *request. Returns
/// XMPI_ERR_RANK (leaving @c *request untouched) when @c source is neither a
/// valid comm rank, ANY_SOURCE, nor PROC_NULL.
int transport_irecv(
    Comm& comm, int source, int tag, int context, void* buf, std::size_t count,
    Datatype const& type, Request** request);

/// @brief The failure-watch rule of every receive: XMPI_SUCCESS while a
/// receive on (@c context, @c source) can still complete, else the error
/// that aborts it. A collective-context receive is one hop of a relay
/// (dissemination, tree, ring): its completion depends transitively on every
/// member, so ANY member's death aborts it — the direct source may well be
/// alive and yet never send, having bailed out of the same collective on a
/// failure this rank has not observed yet. A point-to-point receive watches
/// its source (every member when that is ANY_SOURCE).
int recv_abort_error(Comm const& comm, int context, int source);

/// @name Collective-context messaging on a call's channel (coll_*.cpp)
/// @{
int coll_send(
    Comm& comm, CollChannel channel, int dest, void const* buf, std::size_t count,
    Datatype const& type);
int coll_recv(
    Comm& comm, CollChannel channel, int source, void* buf, std::size_t count,
    Datatype const& type);
/// @brief Send to @c dest, then receive from @c source (eager sends complete
/// locally, so pairwise exchange rounds cannot deadlock).
int coll_sendrecv(
    Comm& comm, CollChannel channel, int dest, void const* sendbuf, std::size_t sendcount,
    Datatype const& sendtype, int source, void* recvbuf, std::size_t recvcount,
    Datatype const& recvtype);
/// @}

/// @brief Entry check shared by all collectives: revoked / failed members.
int check_collective(Comm const& comm);

} // namespace xmpi::detail
