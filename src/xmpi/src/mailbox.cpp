#include "xmpi/mailbox.hpp"

#include <algorithm>
#include <cstring>

#include "xmpi/datatype.hpp"
#include "xmpi/error.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

Mailbox::Mailbox(
    World* world, PayloadPool* pool, profile::RankCounters* counters, int rank, int world_size)
    : world_(world),
      pool_(pool),
      counters_(counters),
      rank_(rank),
      world_size_(world_size),
      waiter_(world->waiter(rank)) {}

void Mailbox::complete_ticket_locked(
    RecvTicket& ticket, Envelope const& env, std::byte const* data, std::size_t size,
    SyncHandle* sync) {
    ticket.status.source = env.source;
    ticket.status.tag = env.tag;
    ticket.status.bytes = size;
    ticket.status.error = XMPI_SUCCESS;

    std::size_t const capacity_bytes = ticket.type->packed_size(ticket.count);
    if (size > capacity_bytes) {
        ticket.status.error = XMPI_ERR_TRUNCATE;
        // Deliver the truncated prefix, like common MPI implementations do.
        std::size_t const whole_elements = capacity_bytes / ticket.type->size();
        ticket.type->unpack(data, whole_elements, ticket.buffer);
    } else {
        std::size_t const elements =
            ticket.type->size() == 0 ? 0 : size / ticket.type->size();
        ticket.type->unpack(data, elements, ticket.buffer);
    }
    if (sync != nullptr) {
        sync->signal();
    }
    // Release pairs with the acquire poll in await(): the unpacked buffer
    // and status must be visible before the flag.
    ticket.complete.store(true, std::memory_order_release);
}

void Mailbox::complete_rendezvous_locked(
    RecvTicket& ticket, Envelope const& env, RendezvousState& rdv, SyncHandle* sync) {
    std::uint32_t expected = RendezvousState::published;
    if (rdv.phase.compare_exchange_strong(
            expected, RendezvousState::claimed, std::memory_order_acq_rel)) {
        // Receiver-pulled zero-copy: the payload goes straight from the
        // sender's user buffer into the receive buffer. Only then is the
        // sender released (it may reuse or unwind its buffer afterwards).
        complete_ticket_locked(ticket, env, rdv.src_data, rdv.size, sync);
        counters_->rendezvous_transfers.fetch_add(1, std::memory_order_relaxed);
        counters_->bytes_zero_copied.fetch_add(rdv.size, std::memory_order_relaxed);
        rdv.phase.store(RendezvousState::completed, std::memory_order_release);
        if (rdv.sender != nullptr) {
            rdv.sender->notify();
        }
        return;
    }
    if (expected == RendezvousState::eagering) {
        // The sender hit its fallback deadline and is copying into the
        // descriptor's own buffer; the wait is bounded by that one memcpy.
        expected = rdv.await_leaving(RendezvousState::eagering);
    }
    if (expected == RendezvousState::eagered) {
        complete_ticket_locked(ticket, env, rdv.fallback.data(), rdv.size, sync);
        return;
    }
    // Abandoned: the sender died mid-rendezvous. Fail the receive instead of
    // hanging on bytes that will never arrive.
    ticket.status.source = env.source;
    ticket.status.tag = env.tag;
    ticket.status.bytes = 0;
    ticket.status.error = XMPI_ERR_PROC_FAILED;
    ticket.complete.store(true, std::memory_order_release);
}

void Mailbox::complete_from_message_locked(RecvTicket& ticket, Message&& message) {
    if (message.rendezvous != nullptr) {
        complete_rendezvous_locked(
            ticket, message.env, *message.rendezvous, message.sync.get());
    } else {
        complete_ticket_locked(
            ticket, message.env, message.payload.data(), message.payload.size,
            message.sync.get());
    }
}

std::shared_ptr<RecvTicket> Mailbox::take_matching_posted_locked(Envelope const& env) {
    std::shared_ptr<RecvTicket>* exact = nullptr;
    auto bucket = posted_exact_.find(env);
    if (bucket != posted_exact_.end() && !bucket->second.empty()) {
        exact = &bucket->second.front();
    }
    // The wildcard list is kept in posting order, so the first match is the
    // earliest-posted wildcard candidate.
    auto wild = std::find_if(posted_wild_.begin(), posted_wild_.end(), [&](auto const& ticket) {
        return ticket->pattern.matches(env);
    });
    std::shared_ptr<RecvTicket> taken;
    if (exact != nullptr && (wild == posted_wild_.end() || (*exact)->seq < (*wild)->seq)) {
        taken = std::move(*exact);
        bucket->second.pop_front();
        if (bucket->second.empty()) {
            posted_exact_.erase(bucket);
        }
    } else if (wild != posted_wild_.end()) {
        taken = std::move(*wild);
        posted_wild_.erase(wild);
    }
    return taken;
}

bool Mailbox::take_matching_unexpected_locked(Envelope const& pattern, Message& out) {
    auto take_front = [&](auto bucket) {
        out = std::move(bucket->second.front());
        bucket->second.pop_front();
        if (bucket->second.empty()) {
            unexpected_.erase(bucket);
        }
        return true;
    };
    if (pattern.is_exact()) {
        auto bucket = unexpected_.find(pattern);
        if (bucket == unexpected_.end()) {
            return false;
        }
        return take_front(bucket);
    }
    // Wildcard: only bucket fronts can be the earliest match (buckets are
    // FIFO); pick the front with the smallest arrival sequence.
    auto best = unexpected_.end();
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
        if (pattern.matches(it->first)
            && (best == unexpected_.end()
                || it->second.front().seq < best->second.front().seq)) {
            best = it;
        }
    }
    if (best == unexpected_.end()) {
        return false;
    }
    return take_front(best);
}

bool Mailbox::remove_posted_locked(std::shared_ptr<RecvTicket> const& ticket) {
    if (ticket->pattern.is_exact()) {
        auto bucket = posted_exact_.find(ticket->pattern);
        if (bucket == posted_exact_.end()) {
            return false;
        }
        auto const erased = std::erase(bucket->second, ticket);
        if (bucket->second.empty()) {
            posted_exact_.erase(bucket);
        }
        return erased > 0;
    }
    return posted_wild_.remove(ticket) > 0;
}

void Mailbox::enqueue_unexpected_locked(Message&& message) {
    message.seq = next_message_seq_++;
    unexpected_[message.env].push_back(std::move(message));
}

void Mailbox::deliver_locked(Message&& message) {
    // Elastic worlds: a message published on a superseded epoch's
    // communicator must never match a receive of the current epoch. The
    // per-epoch comms register their contexts, so one map lookup decides;
    // non-elastic worlds skip this on a single branch.
    if (world_->elastic_enabled() && world_->context_is_stale(message.env.context)) {
        counters_->stale_epoch_drops.fetch_add(1, std::memory_order_relaxed);
        if (message.sync != nullptr) {
            // Never leave a synchronous-mode sender parked on a message that
            // is being dropped; its epoch-stale comm reports the error.
            message.sync->signal();
        }
        return;
    }
    if (auto ticket = take_matching_posted_locked(message.env)) {
        complete_from_message_locked(*ticket, std::move(message));
    } else {
        enqueue_unexpected_locked(std::move(message));
    }
}

void Mailbox::dispatch_entry_locked(RingEntry&& entry, std::size_t batch_bytes) {
    switch (entry.kind) {
        case RingEntry::Kind::batch: {
            std::byte const* const base = entry.block->bytes.data();
            std::size_t offset = 0;
            while (offset < batch_bytes) {
                BatchRecordHeader header;
                std::memcpy(&header, base + offset, sizeof(header));
                Message message;
                message.env = Envelope{header.context, header.source, header.tag};
                message.payload = PayloadRef{
                    entry.block,
                    static_cast<std::uint32_t>(offset + sizeof(header)),
                    header.size};
                deliver_locked(std::move(message));
                offset += batch_record_bytes(header.size);
            }
            break;
        }
        case RingEntry::Kind::message: {
            Message message;
            message.env = entry.env;
            message.payload = PayloadRef{
                std::move(entry.block), 0, static_cast<std::uint32_t>(entry.bytes)};
            message.sync = std::move(entry.sync);
            deliver_locked(std::move(message));
            break;
        }
        case RingEntry::Kind::rendezvous: {
            Message message;
            message.env = entry.env;
            message.sync = std::move(entry.sync);
            message.rendezvous = std::move(entry.rendezvous);
            deliver_locked(std::move(message));
            break;
        }
        case RingEntry::Kind::none:
            break;
    }
}

bool Mailbox::drain_one_ring_locked(PeerRing& ring) {
    RingEntry entry;
    std::size_t batch_bytes = 0;
    bool any = false;
    while (ring.try_pop(entry, batch_bytes)) {
        any = true;
        dispatch_entry_locked(std::move(entry), batch_bytes);
    }
    return any;
}

bool Mailbox::drain_rings_locked() {
    // Snapshot before the sweep: a push racing past the sweep leaves the
    // epoch ahead of drained_, so the next entry point sweeps again.
    std::uint64_t const target = waiter_.epoch();
    if (target == drained_.load(std::memory_order_relaxed)) {
        return false;
    }
    bool progressed = false;
    RingRegistry& rings = world_->rings();
    int const scan_bound = world_size_.load(std::memory_order_acquire);
    for (int src = 0; src < scan_bound; ++src) {
        PeerRing* const ring = rings.peek(src, rank_);
        if (ring != nullptr) {
            progressed |= drain_one_ring_locked(*ring);
        }
    }
    drained_.store(target, std::memory_order_release);
    return progressed;
}

void Mailbox::deliver_overflow(PeerRing& ring, RingEntry&& entry, std::size_t batch_bytes) {
    {
        std::lock_guard lock(mutex_);
        drain_one_ring_locked(ring);
        dispatch_entry_locked(std::move(entry), batch_bytes);
    }
    waiter_.notify();
}

bool Mailbox::poll() {
    if (waiter_.epoch() == drained_.load(std::memory_order_acquire)) {
        return false;
    }
    std::lock_guard lock(mutex_);
    return drain_rings_locked();
}

bool Mailbox::post_or_match(std::shared_ptr<RecvTicket> const& ticket) {
    std::lock_guard lock(mutex_);
    // Drain *before* matching: ring entries are older than this receive and
    // must reach the unexpected queue first so the earliest matching message
    // wins (non-overtaking).
    drain_rings_locked();
    Message message;
    if (take_matching_unexpected_locked(ticket->pattern, message)) {
        complete_from_message_locked(*ticket, std::move(message));
        return true;
    }
    ticket->seq = next_ticket_seq_++;
    if (ticket->pattern.is_exact()) {
        posted_exact_[ticket->pattern].push_back(ticket);
    } else {
        posted_wild_.push_back(ticket);
    }
    return false;
}

bool Mailbox::is_complete(std::shared_ptr<RecvTicket> const& ticket) {
    if (ticket->complete.load(std::memory_order_acquire)) {
        return true;
    }
    poll(); // the completing entry may be sitting in our rings
    return ticket->complete.load(std::memory_order_acquire);
}

bool Mailbox::cancel(std::shared_ptr<RecvTicket> const& ticket) {
    std::lock_guard lock(mutex_);
    // Let a racing completion win before withdrawing the ticket.
    drain_rings_locked();
    return !ticket->complete.load(std::memory_order_acquire) && remove_posted_locked(ticket);
}

bool Mailbox::find_unexpected_locked(Envelope const& pattern, Status& status) {
    Message const* found = nullptr;
    if (pattern.is_exact()) {
        auto bucket = unexpected_.find(pattern);
        if (bucket != unexpected_.end()) {
            found = &bucket->second.front();
        }
    } else {
        std::uint64_t best_seq = 0;
        for (auto const& [env, queue]: unexpected_) {
            if (pattern.matches(env)
                && (found == nullptr || queue.front().seq < best_seq)) {
                found = &queue.front();
                best_seq = found->seq;
            }
        }
    }
    if (found == nullptr) {
        return false;
    }
    status.source = found->env.source;
    status.tag = found->env.tag;
    status.bytes = found->bytes();
    status.error = XMPI_SUCCESS;
    return true;
}

bool Mailbox::probe(Envelope const& pattern, Status& status) {
    std::lock_guard lock(mutex_);
    drain_rings_locked();
    return find_unexpected_locked(pattern, status);
}

} // namespace xmpi::detail
