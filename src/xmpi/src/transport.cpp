#include "transport.hpp"

#include <chrono>
#include <cstring>

#include "xmpi/chaos.hpp"
#include "xmpi/progress.hpp"
#include "xmpi/tuning.hpp"

namespace xmpi::detail {

int check_peer(Comm const& comm, int peer) {
    // Most specific error first: a superseded elastic epoch is reported as
    // such even though the transition also revoked the communicator.
    if (comm.epoch_stale()) {
        return XMPI_ERR_EPOCH;
    }
    if (comm.revoked()) {
        return XMPI_ERR_REVOKED;
    }
    if (peer == ANY_SOURCE) {
        return comm.any_member_failed() ? XMPI_ERR_PROC_FAILED : XMPI_SUCCESS;
    }
    if (comm.world().is_failed(comm.world_rank_of(peer))) {
        return XMPI_ERR_PROC_FAILED;
    }
    return XMPI_SUCCESS;
}

namespace {

/// @brief One send's peer, receiver mailbox (only ever poked), (src,dst)
/// ring, and the sending rank's Waiter and counters.
struct Route {
    Comm& comm;
    int dest;
    Mailbox& dst_box;
    PeerRing& ring;
    Waiter& self;
    profile::RankCounters& counters;
};

/// @brief Publishes @c entry on the route's ring and wakes the receiver; a
/// @c fastpath publish also counts in fastpath_sends. Every counter is
/// bumped before the wake, so a receiver that got the message reads final
/// sender counters.
///
/// A full ring backpressures: the send counts once, in ring_full_fallbacks,
/// queues its entry behind the sends already waiting (PeerRing::enqueue)
/// and waits on its own Waiter. The receiver's sweeps notify it while
/// anything is queued; each wake flushes the queue in send order. Its own
/// rungs drain meanwhile, so two ranks sending to each other both progress.
/// It returns check_peer's error instead if the receiver fails or leaves,
/// or the comm is revoked; the entry is then withdrawn unsent.
int publish(Route const& route, RingEntry&& entry, std::size_t batch_bytes, bool fastpath) {
    if (route.ring.try_push(std::move(entry), batch_bytes)) {
        route.counters.ring_enqueues.fetch_add(1, std::memory_order_relaxed);
        if (fastpath) {
            route.counters.fastpath_sends.fetch_add(1, std::memory_order_relaxed);
        }
        route.dst_box.notify_push();
        return XMPI_SUCCESS;
    }
    route.counters.ring_full_fallbacks.fetch_add(1, std::memory_order_relaxed);
    // Withdraws the entry if the send leaves the wait unsent (an error, or
    // an unwind of its rank).
    struct Place {
        PeerRing& ring;
        std::uint64_t place;
        ~Place() { (void)ring.withdraw(place); }
    } const queued{route.ring, route.ring.enqueue(std::move(entry), batch_bytes)};
    route.dst_box.notify_push();
    int err = XMPI_SUCCESS;
    route.self.wait_until([&](bool parked) {
        if (route.ring.flush() != 0) {
            // The flush may have published other waiting sends' entries too:
            // wake them along with the receiver.
            route.dst_box.notify_push();
            route.self.notify();
        }
        if (!route.ring.queued(queued.place)) {
            return true;
        }
        err = parked ? check_peer(route.comm, route.dest) : XMPI_SUCCESS;
        return err != XMPI_SUCCESS;
    });
    return err;
}

/// @brief Coalescing path for small contiguous sends: ride the open batch
/// slot if possible, else open a fresh batch.
int send_small(
    Route const& route, PayloadPool& pool, Envelope const& env, std::byte const* data,
    std::size_t bytes) {
    if (route.ring.try_append(env, data, static_cast<std::uint32_t>(bytes))) {
        // The batch slot we appended to is still unconsumed, so its own
        // publish notification is still pending at the receiver — no second
        // wake is needed (see the arrival accounting in mailbox.hpp).
        route.counters.coalesced_sends.fetch_add(1, std::memory_order_relaxed);
        route.counters.fastpath_sends.fetch_add(1, std::memory_order_relaxed);
        return XMPI_SUCCESS;
    }

    auto block = std::make_shared<PooledBlock>(
        &pool, pool.acquire(tuning::transport().coalesce_watermark, route.counters));
    BatchRecordHeader const header{
        env.context, env.source, env.tag, static_cast<std::uint32_t>(bytes)};
    std::memcpy(block->bytes.data(), &header, sizeof(header));
    if (bytes != 0) {
        std::memcpy(block->bytes.data() + sizeof(header), data, bytes);
    }

    RingEntry entry;
    entry.kind = RingEntry::Kind::batch;
    entry.block = std::move(block);
    return publish(route, std::move(entry), batch_record_bytes(bytes), true);
}

/// @brief Receiver-pulled rendezvous for large contiguous point-to-point
/// sends: publish a descriptor, then wait until the receiver has copied the
/// payload straight out of the user buffer (zero-copy on both sides), with
/// an eager-copy fallback after the tuned deadline so eager-ordered
/// programs cannot deadlock. Restricted to the pt2pt context by the caller:
/// collective algorithms rely on eager local completion of their sends.
int send_rendezvous(
    Route const& route, Envelope const& env, std::byte const* data, std::size_t bytes,
    std::shared_ptr<SyncHandle> sync) {
    auto rdv = std::make_shared<RendezvousState>();
    rdv->src_data = data;
    rdv->size = bytes;
    rdv->sender = &route.self;

    RingEntry entry;
    entry.kind = RingEntry::Kind::rendezvous;
    entry.env = env;
    entry.bytes = bytes;
    entry.sync = std::move(sync);
    entry.rendezvous = rdv;
    if (int const err = publish(route, std::move(entry), 0, true); err != XMPI_SUCCESS) {
        return err;
    }

    // If this rank dies before the descriptor is resolved, mark it
    // abandoned so the receiver fails with XMPI_ERR_PROC_FAILED instead of
    // waiting for bytes that will never arrive. If the receiver is already
    // mid-copy (claimed), wait it out: the user buffer outlives this frame,
    // and the unwind must not free stack below a buffer still being read.
    struct AbandonGuard {
        RendezvousState* rdv;
        ~AbandonGuard() {
            std::uint32_t expected = RendezvousState::published;
            if (!rdv->phase.compare_exchange_strong(
                    expected, RendezvousState::abandoned, std::memory_order_acq_rel)
                && expected == RendezvousState::claimed) {
                (void)rdv->await_leaving(RendezvousState::claimed);
            }
        }
    } guard{rdv.get()};

    chaos::hit_hook(
        route.comm.world(), current_world_rank(), chaos::Hook::ft_rendezvous_publish);

    // Wait for the receiver's claim. The Waiter's rungs drain our own
    // mailbox meanwhile: two ranks exchanging large messages
    // (posted-receive-first, like XMPI_Sendrecv) must each claim the other's
    // descriptor to complete at full zero-copy speed instead of falling back.
    auto const deadline =
        Waiter::Clock::now()
        + std::chrono::microseconds(tuning::transport().rendezvous_fallback_us);
    auto const peer_error = [&] { return check_peer(route.comm, route.dest); };
    while (true) {
        bool const woke = route.self.wait_until(
            [&](bool parked) {
                return rdv->phase.load(std::memory_order_acquire) != RendezvousState::published
                       || (parked && peer_error() != XMPI_SUCCESS);
            },
            deadline);
        std::uint32_t phase = rdv->phase.load(std::memory_order_acquire);
        if (phase == RendezvousState::claimed) {
            phase = rdv->await_leaving(RendezvousState::claimed);
        }
        if (phase == RendezvousState::completed) {
            // The receiver pulled straight from the user buffer; count the
            // sender side of the zero-copy transfer (the receiver counted
            // its own side at the claim).
            route.counters.bytes_zero_copied.fetch_add(bytes, std::memory_order_relaxed);
            return XMPI_SUCCESS;
        }
        std::uint32_t expected = RendezvousState::published;
        if (int const err = peer_error(); err != XMPI_SUCCESS) {
            if (rdv->phase.compare_exchange_strong(
                    expected, RendezvousState::abandoned, std::memory_order_acq_rel)) {
                return err;
            }
        } else if (!woke
                   && rdv->phase.compare_exchange_strong(
                       expected, RendezvousState::eagering, std::memory_order_acq_rel)) {
            // No receiver showed up in time: restore plain eager semantics by
            // parking a copy in the descriptor. (For synchronous-mode sends
            // the caller still blocks on its SyncHandle until the receiver
            // matches the descriptor.)
            rdv->fallback.assign(data, data + bytes);
            rdv->phase.store(RendezvousState::eagered, std::memory_order_release);
            return XMPI_SUCCESS;
        }
        // A claim raced in: resolve it on the next iteration.
    }
}

/// @brief A non-blocking send on a full ring returns at once. It continues
/// as a fiber of this rank: the fiber queues its entry before submit
/// returns, so later sends stay behind it, and this rank's later library
/// calls progress it. MPI lets the caller free the request while the send
/// runs, and the caller's buffer and handles may then go, so the fiber sends
/// a packed copy and holds the communicator. Kept out of line: the hot send
/// path never runs it.
[[gnu::cold, gnu::noinline]] Request* defer_send(
    Comm& comm, int dest, int tag, int context, void const* buf, std::size_t count,
    Datatype const& type, std::shared_ptr<SyncHandle> sync,
    std::shared_ptr<PayloadSlot> const& reservation) {
    std::vector<std::byte> packed(type.packed_size(count));
    if (!type.is_contiguous()) {
        type.pack(buf, count, packed.data());
    } else if (!packed.empty()) {
        std::memcpy(packed.data(), buf, packed.size());
    }
    comm.retain();
    std::shared_ptr<void> const held(nullptr, [&comm](void*) { comm.release(); });
    return progress::detail::submit(
        "isend",
        [&comm, dest, tag, context, packed = std::move(packed), sync, reservation, held] {
            int const err = transport_send(
                comm, dest, tag, context, packed.data(), packed.size(),
                *predefined_type(BuiltinType::byte_), sync, reservation);
            if (err != XMPI_SUCCESS || sync == nullptr) {
                return err;
            }
            // A synchronous-mode send completes once it is matched.
            SyncRequest matched(sync, &comm);
            Status status;
            matched.wait(status);
            return status.error;
        },
        /*detachable=*/true);
}

} // namespace

int transport_send(
    Comm& comm, int dest, int tag, int context, void const* buf, std::size_t count,
    Datatype const& type, std::shared_ptr<SyncHandle> sync,
    std::shared_ptr<PayloadSlot> const& reservation, Request** deferred) {
    if (dest == PROC_NULL) {
        return XMPI_SUCCESS;
    }
    if (dest < 0 || dest >= comm.size()) {
        return XMPI_ERR_RANK;
    }
    if (int const err = check_peer(comm, dest); err != XMPI_SUCCESS) {
        return err;
    }

    World& world = comm.world();
    int const src_world = current_world_rank();
    int const dst_world = comm.world_rank_of(dest);
    PeerRing& ring = world.rings().ring(src_world, dst_world);
    if (deferred != nullptr && !t_fiber_seam.in_fiber && ring.full()) {
        *deferred = defer_send(comm, dest, tag, context, buf, count, type, sync, reservation);
        return XMPI_SUCCESS;
    }

    std::size_t const bytes = type.packed_size(count);
    Envelope const env{context, comm.rank(), tag};
    auto& counters = world.counters(src_world);
    counters.messages_sent.fetch_add(1, std::memory_order_relaxed);
    counters.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
    world.network_model().charge(bytes);

    Route const route{
        .comm = comm, .dest = dest, .dst_box = world.mailbox(dst_world), .ring = ring,
        .self = world.waiter(src_world), .counters = counters};
    auto const& knobs = tuning::transport();
    auto& pool = world.payload_pool();

    if (type.is_contiguous()) {
        // Contiguous fast paths: the packed representation IS the user
        // buffer, so small messages memcpy once into a (shared, coalesced)
        // batch block, and large point-to-point messages skip even that via
        // the receiver-pulled rendezvous. Synchronous-mode sends carry a
        // SyncHandle per message and therefore never coalesce.
        auto const* data = static_cast<std::byte const*>(buf);
        if (bytes <= knobs.coalesce_max_bytes && sync == nullptr) {
            return send_small(route, pool, env, data, bytes);
        }
        if (bytes >= knobs.rendezvous_threshold && context == comm.pt2pt_context()) {
            return send_rendezvous(route, env, data, bytes, std::move(sync));
        }
    }

    // Packed eager path: mid-size contiguous, non-contiguous datatypes, and
    // small synchronous-mode sends. One copy into a pooled payload, then a
    // lock-free publish like everything else. Persistent sends carry a
    // pre-pinned reservation whose buffer short-circuits the pool entirely.
    std::vector<std::byte> payload;
    std::shared_ptr<PayloadSlot> home;
    if (reservation != nullptr) {
        std::lock_guard lock(reservation->mutex);
        if (reservation->occupied && reservation->buffer.capacity() >= bytes) {
            payload = std::move(reservation->buffer);
            reservation->occupied = false;
            home = reservation;
        }
    }
    if (home != nullptr) {
        payload.resize(bytes);
        counters.reserved_payload_reuses.fetch_add(1, std::memory_order_relaxed);
    } else {
        payload = pool.acquire(bytes, counters);
    }
    RingEntry entry;
    entry.kind = RingEntry::Kind::message;
    entry.env = env;
    entry.bytes = bytes;
    entry.block = std::make_shared<PooledBlock>(&pool, std::move(payload), std::move(home));
    type.pack(buf, count, entry.block->bytes.data());
    entry.sync = std::move(sync);
    return publish(route, std::move(entry), 0, false);
}

namespace {

/// @brief Thread-local cache of RecvTicket control blocks. Every receive
/// allocates one shared RecvTicket; recycling the (fixed-size) blocks keeps
/// malloc off the receive path. Blocks may be freed by a different thread
/// than the one that allocated them (the last reference to a ticket can be
/// dropped by the delivering rank); they then simply migrate to that
/// thread's cache.
struct TicketBlockCache {
    static constexpr std::size_t kMaxBlocks = 256;
    std::vector<void*> blocks;
    std::size_t block_size = 0;

    ~TicketBlockCache() {
        for (void* block: blocks) {
            ::operator delete(block);
        }
    }
};
thread_local TicketBlockCache t_ticket_blocks;

template <typename T>
struct TicketAllocator {
    using value_type = T;

    TicketAllocator() = default;
    template <typename U>
    TicketAllocator(TicketAllocator<U> const&) {}

    T* allocate(std::size_t n) {
        auto& cache = t_ticket_blocks;
        std::size_t const bytes = n * sizeof(T);
        if (!cache.blocks.empty() && cache.block_size == bytes) {
            T* block = static_cast<T*>(cache.blocks.back());
            cache.blocks.pop_back();
            return block;
        }
        return static_cast<T*>(::operator new(bytes));
    }

    void deallocate(T* block, std::size_t n) {
        auto& cache = t_ticket_blocks;
        std::size_t const bytes = n * sizeof(T);
        if ((cache.block_size == 0 || cache.block_size == bytes)
            && cache.blocks.size() < TicketBlockCache::kMaxBlocks) {
            cache.block_size = bytes;
            cache.blocks.push_back(block);
            return;
        }
        ::operator delete(block);
    }

    template <typename U>
    bool operator==(TicketAllocator<U> const&) const {
        return true;
    }
};

std::shared_ptr<RecvTicket> make_ticket(
    Comm const& comm, int source, int tag, int context, void* buf, std::size_t count,
    Datatype const& type) {
    auto ticket = std::allocate_shared<RecvTicket>(TicketAllocator<RecvTicket>{});
    ticket->pattern = Envelope{context, source, tag};
    ticket->buffer = buf;
    ticket->type = &type;
    ticket->count = count;
    ticket->comm = &comm;
    return ticket;
}

} // namespace

int transport_recv(
    Comm& comm, int source, int tag, int context, void* buf, std::size_t count,
    Datatype const& type, Status* status) {
    if (source == PROC_NULL) {
        if (status != nullptr) {
            *status = Status{PROC_NULL, ANY_TAG, XMPI_SUCCESS, 0};
        }
        return XMPI_SUCCESS;
    }
    if (source != ANY_SOURCE && (source < 0 || source >= comm.size())) {
        return XMPI_ERR_RANK;
    }

    auto ticket = make_ticket(comm, source, tag, context, buf, count, type);

    // A collective-context receive is one hop of a relay (dissemination,
    // tree): its completion depends transitively on every member, so ANY
    // member's death must abort the wait. The direct source may well be
    // alive and yet never send — it bailed out of the same collective on a
    // failure this rank has not observed yet.
    int const watch = (context == comm.collective_context()) ? ANY_SOURCE : source;
    Mailbox& mailbox = comm.world().mailbox(current_world_rank());
    if (!mailbox.post_or_match(ticket)) {
        if (!mailbox.await(ticket, [&] { return check_peer(comm, watch) != XMPI_SUCCESS; })) {
            return check_peer(comm, watch);
        }
    }
    if (status != nullptr) {
        *status = ticket->status;
    }
    return ticket->status.error;
}

int transport_irecv(
    Comm& comm, int source, int tag, int context, void* buf, std::size_t count,
    Datatype const& type, Request** request) {
    if (source == PROC_NULL) {
        *request = new CompletedRequest(Status{PROC_NULL, ANY_TAG, XMPI_SUCCESS, 0});
        return XMPI_SUCCESS;
    }
    // Validate here, exactly like the blocking receive: an unchecked source
    // would flow into RecvRequest::check_failed and index the member table
    // out of bounds.
    if (source != ANY_SOURCE && (source < 0 || source >= comm.size())) {
        return XMPI_ERR_RANK;
    }
    auto ticket = make_ticket(comm, source, tag, context, buf, count, type);

    Mailbox& mailbox = comm.world().mailbox(current_world_rank());
    mailbox.post_or_match(ticket);
    *request = new RecvRequest(std::move(ticket), &mailbox);
    return XMPI_SUCCESS;
}

int channel_send(
    Comm& comm, CollChannel channel, int dest, void const* buf, std::size_t count,
    Datatype const& type) {
    return transport_send(comm, dest, channel.tag, channel.context, buf, count, type);
}

int channel_recv(
    Comm& comm, CollChannel channel, int source, void* buf, std::size_t count,
    Datatype const& type) {
    return transport_recv(comm, source, channel.tag, channel.context, buf, count, type, nullptr);
}

int channel_sendrecv(
    Comm& comm, CollChannel channel, int dest, void const* sendbuf, std::size_t sendcount,
    Datatype const& sendtype, int source, void* recvbuf, std::size_t recvcount,
    Datatype const& recvtype) {
    if (int const err = channel_send(comm, channel, dest, sendbuf, sendcount, sendtype);
        err != XMPI_SUCCESS) {
        return err;
    }
    return channel_recv(comm, channel, source, recvbuf, recvcount, recvtype);
}

} // namespace xmpi::detail
