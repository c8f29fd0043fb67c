#include "xmpi/ring.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "kassert/kassert.hpp"

namespace xmpi::detail {

namespace {
[[nodiscard]] std::size_t round_pow2(std::size_t value) {
    if (value < 2) {
        return 2;
    }
    return std::bit_ceil(value);
}

/// @brief Debug builds: fails if another thread is producing into the same
/// ring right now. Sequential producers on different threads are fine.
class SoleProducer {
public:
#ifdef NDEBUG
    explicit SoleProducer(std::atomic<bool>&) {}
#else
    explicit SoleProducer(std::atomic<bool>& producing) : producing_(producing) {
        KASSERT(
            !producing_.exchange(true, std::memory_order_acquire),
            "two threads produce into one ring at once");
    }
    ~SoleProducer() { producing_.store(false, std::memory_order_release); }

private:
    std::atomic<bool>& producing_;
#endif
};
} // namespace

PeerRing::PeerRing(std::size_t capacity)
    : capacity_(round_pow2(capacity)),
      mask_(capacity_ - 1),
      slots_(std::make_unique<Slot[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
        slots_[i].seq.store(i, std::memory_order_relaxed);
    }
}

bool PeerRing::try_push(RingEntry&& entry, std::size_t batch_bytes) {
    SoleProducer const sole(producing_);
    if (queued_count_.load(std::memory_order_relaxed) != 0) {
        return false; // queued entries go first
    }
    return push_slot(std::move(entry), batch_bytes);
}

bool PeerRing::full() const {
    std::uint64_t const pos = tail_.load(std::memory_order_relaxed);
    return queued_count_.load(std::memory_order_relaxed) != 0
           || slots_[pos & mask_].seq.load(std::memory_order_acquire) != pos;
}

std::uint64_t PeerRing::enqueue(RingEntry&& entry, std::size_t batch_bytes) {
    SoleProducer const sole(producing_);
    queue_.push_back(Queued{next_place_, batch_bytes, std::move(entry)});
    queued_count_.store(queue_.size(), std::memory_order_relaxed);
    return next_place_++;
}

std::size_t PeerRing::flush() {
    SoleProducer const sole(producing_);
    std::size_t published = 0;
    while (published < queue_.size()
           && push_slot(std::move(queue_[published].entry), queue_[published].batch_bytes)) {
        ++published;
    }
    if (published != 0) {
        queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(published));
        queued_count_.store(queue_.size(), std::memory_order_relaxed);
    }
    return published;
}

bool PeerRing::queued(std::uint64_t place) const {
    return std::any_of(
        queue_.begin(), queue_.end(), [&](Queued const& q) { return q.place == place; });
}

bool PeerRing::withdraw(std::uint64_t place) {
    SoleProducer const sole(producing_);
    auto const it = std::find_if(
        queue_.begin(), queue_.end(), [&](Queued const& q) { return q.place == place; });
    if (it == queue_.end()) {
        return false;
    }
    queue_.erase(it);
    queued_count_.store(queue_.size(), std::memory_order_relaxed);
    return true;
}

bool PeerRing::push_slot(RingEntry&& entry, std::size_t batch_bytes) {
    std::uint64_t const pos = tail_.load(std::memory_order_relaxed);
    Slot* const slot = &slots_[pos & mask_];
    if (slot->seq.load(std::memory_order_acquire) != pos) {
        // The slot still holds an unconsumed entry from a lap ago: full.
        return false;
    }
    tail_.store(pos + 1, std::memory_order_relaxed);

    bool const is_batch = entry.kind == RingEntry::Kind::batch;
    if (is_batch) {
        slot->batch_data = entry.block->bytes.data();
        slot->batch_capacity.store(
            static_cast<std::uint32_t>(entry.block->bytes.size()), std::memory_order_relaxed);
        // ready_ may carry stale increments only until the previous consumer
        // finished its close-and-drain of this slot, which happened before
        // seq was recycled — so this reset cannot race a live appender.
        slot->ready_.store(batch_bytes, std::memory_order_relaxed);
        slot->reserve_.store(pack_reserve(pos, batch_bytes), std::memory_order_relaxed);
    }
    slot->entry = std::move(entry);
    slot->seq.store(pos + 1, std::memory_order_release);
    if (is_batch) {
        // Publish the append hint only after the slot itself is visible, so
        // an appender that reads the hint always finds seq == pos + 1.
        last_batch_.store(pos, std::memory_order_release);
    }
    return true;
}

bool PeerRing::try_append(Envelope const& env, std::byte const* payload, std::uint32_t size) {
    SoleProducer const sole(producing_);
    std::uint64_t const pos = last_batch_.load(std::memory_order_acquire);
    if (pos == kNoBatch || queued_count_.load(std::memory_order_relaxed) != 0) {
        return false;
    }
    // Coalescing may only target the *newest* published entry: appending to a
    // batch that has a later entry behind it would deliver this record before
    // that entry, breaking non-overtaking order.
    if (tail_.load(std::memory_order_acquire) != pos + 1) {
        return false;
    }
    Slot& slot = slots_[pos & mask_];
    if (slot.seq.load(std::memory_order_acquire) != pos + 1) {
        return false; // already consumed (or recycled for a later lap)
    }

    std::size_t const need = batch_record_bytes(size);
    std::uint64_t const epoch = (pos & 0xffff);
    std::uint64_t cur = slot.reserve_.load(std::memory_order_relaxed);
    std::uint64_t offset = 0;
    while (true) {
        if (epoch_of(cur) != epoch || (cur & kClosedBit) != 0) {
            return false; // recycled slot or consumer already closed the batch
        }
        offset = cur & kBytesMask;
        if (offset + need > slot.batch_capacity.load(std::memory_order_relaxed)) {
            return false;
        }
        if (slot.reserve_.compare_exchange_weak(cur, cur + need, std::memory_order_acq_rel)) {
            break;
        }
    }

    // The reservation succeeded against the live epoch, so batch_data still
    // points at this batch's block (the consumer cannot recycle the slot
    // until ready_ catches up with our reservation below).
    BatchRecordHeader const header{env.context, env.source, env.tag, size};
    std::memcpy(slot.batch_data + offset, &header, sizeof(header));
    if (size != 0) {
        std::memcpy(slot.batch_data + offset + sizeof(header), payload, size);
    }
    slot.ready_.fetch_add(need, std::memory_order_release);
    return true;
}

bool PeerRing::try_pop(RingEntry& entry, std::size_t& batch_bytes) {
    std::uint64_t const pos = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    if (slot.seq.load(std::memory_order_acquire) != pos + 1) {
        return false; // next slot not yet published
    }

    batch_bytes = 0;
    if (slot.entry.kind == RingEntry::Kind::batch) {
        // Close the batch: an append whose reserve-CAS lands after this
        // fetch_or sees the closed bit and pushes a fresh slot instead. Then
        // wait for an append whose reservation *did* land to finish its
        // copy — bounded by the producer's one in-flight memcpy.
        std::uint64_t const closed =
            slot.reserve_.fetch_or(kClosedBit, std::memory_order_acq_rel);
        std::uint64_t const reserved = closed & kBytesMask;
        int spins = 0;
        while (slot.ready_.load(std::memory_order_acquire) != reserved) {
            if (++spins > 512) {
                std::this_thread::yield();
            } else {
                spin_pause();
            }
        }
        batch_bytes = reserved;
    }

    entry = std::move(slot.entry);
    slot.entry = RingEntry{};
    slot.batch_data = nullptr;
    slot.batch_capacity.store(0, std::memory_order_relaxed);
    slot.seq.store(pos + capacity_, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
}

RingRegistry::RingRegistry(int size, std::size_t ring_capacity)
    : size_(size),
      ring_capacity_(ring_capacity),
      rings_(std::make_unique<std::atomic<PeerRing*>[]>(
          static_cast<std::size_t>(size) * static_cast<std::size_t>(size))) {
    std::size_t const total = static_cast<std::size_t>(size) * static_cast<std::size_t>(size);
    for (std::size_t i = 0; i < total; ++i) {
        rings_[i].store(nullptr, std::memory_order_relaxed);
    }
}

RingRegistry::~RingRegistry() {
    std::size_t const total = static_cast<std::size_t>(size_) * static_cast<std::size_t>(size_);
    for (std::size_t i = 0; i < total; ++i) {
        delete rings_[i].load(std::memory_order_relaxed);
    }
}

PeerRing& RingRegistry::ring(int src, int dst) {
    std::atomic<PeerRing*>& cell = rings_[index(src, dst)];
    PeerRing* existing = cell.load(std::memory_order_acquire);
    if (existing != nullptr) {
        return *existing;
    }
    auto fresh = std::make_unique<PeerRing>(ring_capacity_);
    if (cell.compare_exchange_strong(existing, fresh.get(), std::memory_order_acq_rel)) {
        return *fresh.release();
    }
    return *existing; // another producer won the install race
}

} // namespace xmpi::detail
