/// @file ring.hpp
/// @brief Lock-free per-(src,dst) transport rings.
///
/// The transport hot path: every send from world rank `src` to world rank
/// `dst` is published into the PeerRing of that ordered pair. Its one
/// producer is the sending rank's thread (the rank's non-blocking
/// operations are fibers on it), which claims a slot with a plain load and
/// store of the tail and publishes it with a Vyukov-style sequence number;
/// the *receiver* pulls entries out whenever it drains (every receive entry
/// point and every rung of its waits). No mutex is ever taken between two
/// ranks; a send that finds the ring full queues its entry on the producer
/// side (PeerRing::enqueue) and waits on its own Waiter until the
/// receiver's next drain frees slots and notifies it.
///
/// Three entry kinds ride the ring:
///   - `batch`: a pooled buffer holding one or more coalesced small
///     messages (header + packed payload each). While the slot is published
///     but not yet consumed, later small sends to the same peer *append* to
///     the open batch instead of taking a slot of their own — senders that
///     outrun the receiver automatically aggregate, preserving order.
///   - `message`: a single packed payload (non-contiguous datatypes,
///     synchronous-mode sends, mid-size eager messages).
///   - `rendezvous`: a descriptor for a large contiguous message. The
///     payload stays in the sender's buffer; the receiver copies it
///     *directly* into the posted receive buffer (zero-copy on both sides)
///     and releases the sender. If no receiver claims the descriptor within
///     the tuned deadline, the sender falls back to an eager copy so plain
///     eager-ordered programs cannot deadlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xmpi/pool.hpp"
#include "xmpi/status.hpp"
#include "xmpi/waiter.hpp"

namespace xmpi {
class World;

namespace profile {
struct RankCounters;
}

namespace detail {

/// @brief Message envelope used for matching.
struct Envelope {
    int context;   ///< communicator context id (pt2pt or collective space)
    int source;    ///< sender's rank within the communicator
    int tag;

    /// @brief True iff a receive pattern (which may contain wildcards in
    /// @c source / @c tag) matches a concrete message envelope.
    [[nodiscard]] bool matches(Envelope const& message) const {
        return context == message.context
               && (source == ANY_SOURCE || source == message.source)
               && (tag == ANY_TAG || tag == message.tag);
    }

    /// @brief True iff the pattern contains no wildcard (bucketable).
    [[nodiscard]] bool is_exact() const {
        return source != ANY_SOURCE && tag != ANY_TAG;
    }

    bool operator==(Envelope const&) const = default;
};

/// @brief Hash for exact envelopes (bucket keys).
struct EnvelopeHash {
    [[nodiscard]] std::size_t operator()(Envelope const& env) const {
        auto mix = [](std::size_t seed, std::size_t value) {
            return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
        };
        std::size_t seed = static_cast<std::size_t>(env.context);
        seed = mix(seed, static_cast<std::size_t>(env.source));
        return mix(seed, static_cast<std::size_t>(env.tag));
    }
};

/// @brief Completion handle for synchronous-mode sends: set when the message
/// has been matched by a receive; the match notifies the sending rank.
struct SyncHandle {
    explicit SyncHandle(Waiter& sender) : sender(&sender) {}

    std::atomic<bool> matched = false;
    Waiter* sender;

    void signal() {
        matched.store(true, std::memory_order_release);
        sender->notify();
    }
};

/// @brief A pooled byte buffer with shared ownership: returned to its pool
/// when the last reference drops. Batch buffers are referenced both by the
/// ring slot and by every unexpected message parked in the mailbox that
/// still views bytes inside them, so plain move-out ownership is not enough.
struct PooledBlock {
    PayloadPool* pool = nullptr;
    std::vector<std::byte> bytes;
    /// Reservation slot of a persistent send this buffer is pinned to; the
    /// release cycles the buffer back into the slot (not the pool) so the
    /// next restart finds it waiting. Shared ownership keeps the slot alive
    /// while messages referencing it are still parked in mailboxes.
    std::shared_ptr<PayloadSlot> home;

    PooledBlock(PayloadPool* pool, std::vector<std::byte> bytes,
                std::shared_ptr<PayloadSlot> home = nullptr)
        : pool(pool),
          bytes(std::move(bytes)),
          home(std::move(home)) {}
    ~PooledBlock() {
        if (home != nullptr) {
            std::lock_guard lock(home->mutex);
            if (!home->occupied) {
                home->buffer = std::move(bytes);
                home->occupied = true;
                return;
            }
        }
        if (pool != nullptr) {
            pool->release(std::move(bytes));
        }
    }
    PooledBlock(PooledBlock const&) = delete;
    PooledBlock& operator=(PooledBlock const&) = delete;
};

/// @brief A view into a PooledBlock: the payload of one message. Holds a
/// share of the block, so batch blocks survive until every message parked
/// in the unexpected queue has been consumed.
struct PayloadRef {
    std::shared_ptr<PooledBlock> block;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;

    [[nodiscard]] std::byte const* data() const {
        return block == nullptr ? nullptr : block->bytes.data() + offset;
    }
};

/// @brief Shared state of one large-message rendezvous.
///
/// Life cycle (sender = S, receiver = R):
///   published --R claims--> claimed --R copied src bytes--> completed
///   published --S deadline--> eagering --S copied to fallback--> eagered
///   published --S dies / peer failure--> abandoned
/// The CAS out of `published` decides the winner; every later transition is
/// made by the winner alone. `claimed` tells S its buffer is being read (S
/// must wait for `completed` before reusing or unwinding it); `eagered`
/// tells R the payload now lives in `fallback`; `abandoned` tells R the
/// sender died mid-rendezvous and the receive must fail with
/// XMPI_ERR_PROC_FAILED instead of hanging.
struct RendezvousState {
    enum Phase : std::uint32_t {
        published,
        claimed,
        completed,
        eagering,
        eagered,
        abandoned,
    };

    std::atomic<std::uint32_t> phase{published};
    std::byte const* src_data = nullptr; ///< sender's contiguous payload
    std::size_t size = 0;
    std::vector<std::byte> fallback; ///< eager fallback copy (sender-filled)
    Waiter* sender = nullptr; ///< notified when the claim completes

    /// @brief Spin-waits (with yields, for oversubscribed cores) until the
    /// phase leaves @c from. Used by the receiver while the sender finishes
    /// its fallback copy and by the dying sender while the receiver finishes
    /// a claimed copy — both waits are bounded by one memcpy.
    [[nodiscard]] std::uint32_t await_leaving(std::uint32_t from) const {
        std::uint32_t seen = phase.load(std::memory_order_acquire);
        for (int spins = 0; seen == from; ++spins) {
            if (spins > 512) {
                std::this_thread::yield();
            } else {
                spin_pause();
            }
            seen = phase.load(std::memory_order_acquire);
        }
        return seen;
    }
};

/// @brief One ring entry, written by the publishing producer before the
/// slot's sequence release-store and moved out by the consumer.
struct RingEntry {
    enum class Kind : std::uint8_t { none, batch, message, rendezvous };

    Kind kind = Kind::none;
    Envelope env{0, 0, 0};  ///< message / rendezvous envelope (unused: batch)
    std::size_t bytes = 0;  ///< payload size (message / rendezvous)
    std::shared_ptr<PooledBlock> block; ///< batch records or message payload
    std::shared_ptr<SyncHandle> sync;   ///< synchronous-mode completion
    std::shared_ptr<RendezvousState> rendezvous;
};

/// @brief Header preceding each coalesced record in a batch block. The
/// source is the *communicator-level* rank (the ring's src is a world rank,
/// which differs inside subcommunicators).
struct BatchRecordHeader {
    std::int32_t context;
    std::int32_t source;
    std::int32_t tag;
    std::uint32_t size; ///< packed payload bytes following the header
};

inline constexpr std::size_t kBatchRecordAlign = alignof(BatchRecordHeader);

/// @brief Bytes one coalesced record occupies inside a batch block.
[[nodiscard]] constexpr std::size_t batch_record_bytes(std::size_t payload) {
    std::size_t const raw = sizeof(BatchRecordHeader) + payload;
    return (raw + kBatchRecordAlign - 1) / kBatchRecordAlign * kBatchRecordAlign;
}

/// @brief Bounded lock-free single-producer ring of one ordered (src,dst)
/// pair.
///
/// The producer (the source rank's thread, whichever thread that is: a
/// slot may be re-attached to a new thread between sends) claims tail_
/// with a load and a store and publishes the slot's sequence number; debug
/// builds check that no two threads produce into one ring at once. Pops
/// are serialized by the receiving mailbox, so they need no CAS either.
/// Slots additionally carry the coalescing
/// state of an open batch: `reserve_` packs (epoch | closed | bytes) so a
/// producer can CAS-reserve append space in a still-published batch, and
/// `ready_` counts fully written bytes so the consumer never reads a
/// half-copied record. The 16-bit epoch (derived from the slot's position)
/// makes a stale append attempt against a recycled slot fail its CAS.
class PeerRing {
public:
    explicit PeerRing(std::size_t capacity); // rounded up to a power of two

    PeerRing(PeerRing const&) = delete;
    PeerRing& operator=(PeerRing const&) = delete;

    /// @brief Publishes an entry; returns false, leaving @c entry
    /// untouched, when the ring is full or entries are queued (enqueue).
    /// For batch entries, @c batch_bytes is the initial record's footprint.
    bool try_push(RingEntry&& entry, std::size_t batch_bytes = 0);

    /// @brief Tries to coalesce a small message into the most recently
    /// published batch slot, if it is still unconsumed, has room, and no
    /// entry is queued.
    bool try_append(Envelope const& env, std::byte const* payload, std::uint32_t size);

    /// @brief Consumer side: pops the next published entry. For batch
    /// entries the open batch is closed first (late appenders are fenced
    /// out) and @c batch_bytes receives the number of committed record
    /// bytes. Must be called by one thread at a time (the mailbox mutex).
    bool try_pop(RingEntry& entry, std::size_t& batch_bytes);

    /// @name Backpressure
    /// A send that finds the ring full queues its entry behind the entries
    /// already queued, in send order, and waits on its rank's Waiter. Each
    /// of the producer's waiting sends flushes the queue as slots free, so
    /// it publishes the others' entries as well as its own. While anything
    /// is queued, try_push and try_append refuse: no later send overtakes.
    /// Producer side only, except producer_waiting().
    /// @{
    /// @brief True iff try_push would refuse now: the ring is full or
    /// entries are queued.
    [[nodiscard]] bool full() const;
    /// @brief Queues @c entry; returns its place in line.
    std::uint64_t enqueue(RingEntry&& entry, std::size_t batch_bytes);
    /// @brief Publishes queued entries, oldest first, while slots are free;
    /// returns how many it published.
    std::size_t flush();
    /// @brief True iff the entry at @c place is still queued.
    [[nodiscard]] bool queued(std::uint64_t place) const;
    /// @brief Drops the entry at @c place if it is still queued (its send
    /// failed or unwinds); returns true iff it was.
    bool withdraw(std::uint64_t place);
    /// @brief Consumer side, once per sweep of this ring: true iff entries
    /// are queued. One load of a line the producer writes only when it
    /// queues or publishes a queued entry. The producer queues, then
    /// notifies the receiver, so a sweep that read the receiver's epoch
    /// after that notify sees the queued entries.
    [[nodiscard]] bool producer_waiting() const {
        return queued_count_.load(std::memory_order_relaxed) != 0;
    }
    /// @}

    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> seq{0};
        /// Batch-append state: (epoch << 48) | (closed << 47) | bytes.
        std::atomic<std::uint64_t> reserve_{0};
        std::atomic<std::uint64_t> ready_{0};
        std::byte* batch_data = nullptr;
        /// Atomic only because an appender's pre-CAS overflow check may read
        /// it concurrently with the consumer recycling the slot; a stale
        /// value is harmless (the epoch/closed CAS rejects the reservation),
        /// so every access is relaxed.
        std::atomic<std::uint32_t> batch_capacity{0};
        RingEntry entry;
    };

    static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 47;
    static constexpr std::uint64_t kBytesMask = kClosedBit - 1;
    static constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};

    static constexpr std::uint64_t pack_reserve(std::uint64_t pos, std::uint64_t bytes) {
        return (pos & 0xffff) << 48 | bytes;
    }
    static constexpr std::uint64_t epoch_of(std::uint64_t packed) { return packed >> 48; }

    /// @brief An entry waiting for a slot, and its place in line.
    struct Queued {
        std::uint64_t place;
        std::size_t batch_bytes;
        RingEntry entry;
    };

    /// @brief try_push without the queue check.
    bool push_slot(RingEntry&& entry, std::size_t batch_bytes);

    std::size_t capacity_;
    std::size_t mask_;
    std::unique_ptr<Slot[]> slots_;
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    /// Debug builds: set while a thread is inside a producer-side call.
    std::atomic<bool> producing_{false};
    std::vector<Queued> queue_; ///< oldest first; producer only
    std::uint64_t next_place_ = 0;
    alignas(64) std::atomic<std::size_t> queued_count_{0}; ///< queue_.size()
    alignas(64) std::atomic<std::uint64_t> head_{0};
    /// Position of the most recently published batch slot (append hint).
    alignas(64) std::atomic<std::uint64_t> last_batch_{kNoBatch};
};

/// @brief Lazily constructed p x p table of PeerRings, owned by the World.
/// Ring (src,dst) is created by its first producer with a CAS install, so
/// sparse communication patterns only pay for the pairs they use.
class RingRegistry {
public:
    RingRegistry(int size, std::size_t ring_capacity);
    ~RingRegistry();

    RingRegistry(RingRegistry const&) = delete;
    RingRegistry& operator=(RingRegistry const&) = delete;

    /// @brief The ring of ordered pair (src,dst), created on first use.
    [[nodiscard]] PeerRing& ring(int src, int dst);

    /// @brief The ring of (src,dst) if any producer ever used it, else null.
    /// Consumers scan with this so untouched pairs cost one load.
    [[nodiscard]] PeerRing* peek(int src, int dst) const {
        return rings_[index(src, dst)].load(std::memory_order_acquire);
    }

    [[nodiscard]] int size() const { return size_; }

private:
    [[nodiscard]] std::size_t index(int src, int dst) const {
        return static_cast<std::size_t>(src) * static_cast<std::size_t>(size_)
               + static_cast<std::size_t>(dst);
    }

    int size_;
    std::size_t ring_capacity_;
    std::unique_ptr<std::atomic<PeerRing*>[]> rings_;
};

} // namespace detail
} // namespace xmpi
