/// @file mailbox.hpp
/// @brief Per-rank matching engine over the lock-free transport rings.
///
/// Each rank owns one Mailbox. Senders never touch it: they publish into
/// the per-(src,dst) PeerRings (ring.hpp) and poke the receiver's arrival
/// counter. The receiving rank *pulls* — every receive entry point (post,
/// probe, test) and every rung of every wait of the rank (the Waiter runs
/// the drain, waiter.hpp) first drains the rank's incoming rings under the
/// mailbox mutex, which is thereby reduced from a cross-rank contention
/// point to a consumer-side serializer. A drain is the only delivery path:
/// a sender facing a full ring waits until the receiver's next drain frees
/// a slot, and that drain notifies it.
///
/// Matching semantics are unchanged from the classic design: a message is
/// matched by (context id, source rank, tag); receives may use ANY_SOURCE /
/// ANY_TAG wildcards; posted receives are matched in posting order and
/// unexpected messages in arrival order (non-overtaking). Matching is O(1)
/// for the common case: posted receives and unexpected messages are
/// bucketed by their exact (context, source, tag) key. Wildcard receives
/// live on a separate fallback list; sequence numbers — assigned at drain
/// time, which is when a ring entry enters the matching layer — arbitrate
/// between a bucket front and a wildcard candidate.
///
/// Ordering argument for wildcards over the rings: all messages of one
/// sender travel through one ring in publish order, and the single drain
/// point assigns their mailbox sequence numbers in pop order, so the
/// per-(source, context, tag) arrival order seen by the matching layer is
/// exactly the send order — the same invariant the mutex mailbox had, now
/// established by the ring's FIFO instead of the sender's lock acquisition
/// order. Messages of *different* senders gain an order only when a drain
/// interleaves them, which MPI leaves unspecified.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "xmpi/pool.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/ring.hpp"
#include "xmpi/status.hpp"
#include "xmpi/waiter.hpp"

namespace xmpi {

class Comm;
class Datatype;
class World;

namespace detail {

/// @brief A message inside the matching layer: envelope plus either a view
/// into a (possibly shared batch) payload block or a rendezvous descriptor.
struct Message {
    Envelope env;
    PayloadRef payload;                          ///< empty for rendezvous
    std::shared_ptr<SyncHandle> sync;            ///< synchronous-mode sends
    std::shared_ptr<RendezvousState> rendezvous; ///< large-message descriptor
    std::uint64_t seq = 0;                       ///< arrival order (drain order)

    [[nodiscard]] std::size_t bytes() const {
        return rendezvous != nullptr ? rendezvous->size : payload.size;
    }
};

/// @brief A posted (pending) receive. Completion is guarded by the owning
/// mailbox's mutex; the flag is additionally atomic so waiters may poll it
/// without the lock (the spin phase of Mailbox::await).
struct RecvTicket {
    Envelope pattern;
    void* buffer = nullptr;
    Datatype const* type = nullptr;
    std::size_t count = 0;
    Comm const* comm = nullptr; ///< for failure / revocation checks
    std::uint64_t seq = 0;      ///< posting order within the mailbox

    std::atomic<bool> complete = false;
    Status status;
};

/// @brief Per-rank mailbox: drains the rank's incoming rings and runs the
/// bucketed matching described in the file header.
class Mailbox {
public:
    Mailbox(World* world, PayloadPool* pool, profile::RankCounters* counters, int rank,
            int world_size);

    /// @brief Producer-side poke after publishing a ring entry. The receiving
    /// rank's Waiter epoch doubles as the arrival counter: a drain is due
    /// whenever it moved since the last sweep.
    void notify_push() { waiter_.notify(); }

    /// @brief Drains the incoming rings if anything arrived since the last
    /// sweep. Every rung of the rank's waits runs it (it is the drain the
    /// Waiter carries); a thread outside the world that polls a handed-off
    /// request drains through it too. Returns true on progress.
    bool poll();

    /// @brief Drops the unexpected messages of superseded membership epochs
    /// (counted in stale_epoch_drops). A wait drains whatever arrived,
    /// epoch_sync's included, so a message of the old epoch can be queued
    /// before its context turns stale; the rank calls this once it observed
    /// the transition.
    void drop_stale_epoch_messages();

    /// @brief Tries to match a receive against the unexpected queue (after
    /// draining the rings). On match the message is consumed into @c ticket
    /// (complete = true). Otherwise the ticket is posted. Returns true iff
    /// matched immediately.
    bool post_or_match(std::shared_ptr<RecvTicket> const& ticket);

    /// @brief Blocks until the ticket completes or @c aborted() returns true.
    /// Returns false iff aborted before completion (the ticket is withdrawn).
    template <typename AbortPredicate>
    bool await(std::shared_ptr<RecvTicket> const& ticket, AbortPredicate&& aborted) {
        bool gave_up = false;
        waiter_.wait_until([&](bool parked) {
            if (ticket->complete.load(std::memory_order_acquire)) {
                return true;
            }
            gave_up = parked && aborted();
            return gave_up;
        });
        // A completion that raced the abort wins: cancel() fails for it.
        return !gave_up || !cancel(ticket);
    }

    /// @brief Non-blocking completion check used by request test.
    bool is_complete(std::shared_ptr<RecvTicket> const& ticket);

    /// @brief Withdraws a posted, uncompleted ticket (receive cancellation).
    /// Returns true iff the ticket was still pending and has been removed.
    bool cancel(std::shared_ptr<RecvTicket> const& ticket);

    /// @brief Probes for a matching unexpected message without consuming it.
    /// Fills @c status on success.
    bool probe(Envelope const& pattern, Status& status);

    /// @brief Blocking probe; @c aborted as in await().
    template <typename AbortPredicate>
    bool probe_blocking(Envelope const& pattern, Status& status, AbortPredicate&& aborted) {
        bool found = false;
        waiter_.wait_until([&](bool parked) {
            found = probe(pattern, status);
            return found || (parked && aborted());
        });
        return found;
    }

    /// @brief Raises the ring-scan bound after an elastic membership
    /// transition admitted new ranks (slots [world_size, new_size) can now
    /// send to us). Monotonic; called with the elastic mutex held, so plain
    /// release-store suffices.
    void grow_world_size(int new_size) {
        if (new_size > world_size_.load(std::memory_order_relaxed)) {
            world_size_.store(new_size, std::memory_order_release);
        }
    }

private:
    friend struct MailboxTestAccess;

    using TicketQueue = std::deque<std::shared_ptr<RecvTicket>>;

    /// @brief Drains every incoming ring into the matching layer. Skips the
    /// sweep entirely when no push happened since the last one. Returns true
    /// iff any entry was consumed.
    bool drain_rings_locked();
    void dispatch_entry_locked(RingEntry&& entry, std::size_t batch_bytes);
    void deliver_locked(Message&& message);

    bool find_unexpected_locked(Envelope const& pattern, Status& status);
    void complete_ticket_locked(
        RecvTicket& ticket, Envelope const& env, std::byte const* data, std::size_t size,
        SyncHandle* sync);
    /// @brief Completes @c ticket from a matched message: unpacks an eager
    /// payload, or runs the receiver side of the rendezvous protocol
    /// (claim + direct copy from the sender's buffer, eager-fallback
    /// consumption, or XMPI_ERR_PROC_FAILED for an abandoned descriptor).
    void complete_from_message_locked(RecvTicket& ticket, Message&& message);
    void complete_rendezvous_locked(
        RecvTicket& ticket, Envelope const& env, RendezvousState& rdv, SyncHandle* sync);
    /// @brief Earliest-posted ticket matching @c env: min over the exact
    /// bucket front and the first matching wildcard ticket. Removes and
    /// returns it, or nullptr.
    std::shared_ptr<RecvTicket> take_matching_posted_locked(Envelope const& env);
    /// @brief Earliest-arrived unexpected message matching @c pattern
    /// (bucket lookup for exact patterns, min-seq scan over bucket fronts
    /// for wildcards). Removes and returns it into @c out. Returns false if
    /// none matches.
    bool take_matching_unexpected_locked(Envelope const& pattern, Message& out);
    /// @brief Removes a pending ticket from its bucket / the wildcard list.
    /// Returns true iff it was still present.
    bool remove_posted_locked(std::shared_ptr<RecvTicket> const& ticket);
    void enqueue_unexpected_locked(Message&& message);

    World* world_;
    PayloadPool* pool_;
    profile::RankCounters* counters_; ///< this (receiving) rank's counters
    int rank_;
    /// Ring-scan bound: how many source ranks can publish to us. Grows (only)
    /// at elastic membership transitions; constant in non-elastic worlds.
    std::atomic<int> world_size_;

    Waiter& waiter_; ///< this rank's Waiter (owned by the World)
    std::mutex mutex_;
    /// Waiter epoch of the last completed sweep.
    std::atomic<std::uint64_t> drained_{0};

    std::uint64_t next_message_seq_ = 0;
    std::uint64_t next_ticket_seq_ = 0;
    std::unordered_map<Envelope, std::deque<Message>, EnvelopeHash> unexpected_;
    std::unordered_map<Envelope, TicketQueue, EnvelopeHash> posted_exact_;
    std::list<std::shared_ptr<RecvTicket>> posted_wild_; ///< posting order
};

} // namespace detail
} // namespace xmpi
