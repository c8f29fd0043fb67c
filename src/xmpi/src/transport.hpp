/// @file transport.hpp
/// @brief Internal transport helpers shared by the p2p API and the
/// collective algorithms. Not installed; xmpi-internal only.
#pragma once

#include <memory>

#include "xmpi/comm.hpp"
#include "xmpi/datatype.hpp"
#include "xmpi/error.hpp"
#include "xmpi/mailbox.hpp"
#include "xmpi/request.hpp"
#include "xmpi/status.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

/// @brief Result of a pre-flight check on a peer: XMPI_SUCCESS, or the error
/// class to report (stale epoch / revoked communicator / failed peer). With
/// ANY_SOURCE it checks every member: the entry check of the collectives.
int check_peer(Comm const& comm, int peer_comm_rank_or_any);

/// @brief Packs and delivers one message into the destination's mailbox.
/// Charges the network model and the profiling byte counters. @c context
/// selects the matching space (pt2pt or collective). @c reservation, when
/// set, is the pre-pinned payload slot of a persistent send: the packed
/// eager path takes its buffer instead of hitting the pool, and the
/// receiver's release returns it there (see PayloadSlot).
///
/// A full ring makes the send wait for space (see publish in
/// transport.cpp). A non-blocking send passes @c deferred instead: if the
/// ring is full, the send continues as a fiber of the calling rank,
/// returned in @c *deferred, which completes once the message is published
/// (and, with @c sync, matched). Otherwise @c *deferred is left untouched.
int transport_send(
    Comm& comm, int dest, int tag, int context, void const* buf, std::size_t count,
    Datatype const& type, std::shared_ptr<SyncHandle> sync = nullptr,
    std::shared_ptr<PayloadSlot> const& reservation = nullptr, Request** deferred = nullptr);

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

/// @brief Matching channel of one collective instance: blocking
/// collectives use (collective context, per-kind tag); non-blocking and
/// persistent ones (nbc context, per-initiation sequence tag) so several can
/// be in flight. Collective algorithms send and receive only on the channel
/// their CollCtx carries.
struct CollChannel {
    int context;
    int tag;
};

/// @name Channel wrappers used by the collective algorithms
/// @{
int channel_send(
    Comm& comm, CollChannel channel, int dest, void const* buf, std::size_t count,
    Datatype const& type);
int channel_recv(
    Comm& comm, CollChannel channel, int source, void* buf, std::size_t count,
    Datatype const& type);
/// @brief Send then receive on one channel. Pairwise exchange rounds cannot
/// deadlock: a send completes locally, or waits for ring space in a wait
/// that drains its own rank, so the peer's send progresses too.
int channel_sendrecv(
    Comm& comm, CollChannel channel, int dest, void const* sendbuf, std::size_t sendcount,
    Datatype const& sendtype, int source, void* recvbuf, std::size_t recvcount,
    Datatype const& recvtype);
/// @}

} // namespace xmpi::detail
