/// @file win.hpp
/// @brief One-sided communication (RMA) windows.
///
/// Because every rank of a world lives in the same address space, an xmpi
/// window is simply a table of per-rank exposed memory regions plus the
/// synchronization state that makes accesses well-ordered: one-sided ops are
/// queued on the *origin* rank and applied as plain memory copies at the next
/// synchronization point (the MPI "separate memory model" collapsed to its
/// in-process essence).
///
/// Synchronization modes:
///  - **Active target**: `fence()` drains the calling rank's pending-op queue
///    and runs a barrier over the window's communicator. The barrier gives
///    the happens-before edge that makes post-fence local reads of window
///    memory race-free, and — because it is the error-propagating
///    dissemination barrier from coll_basic.cpp — a fence over a window with
///    failed ranks returns XMPI_ERR_PROC_FAILED instead of hanging.
///  - **Passive target**: `lock(type, target)` / `unlock(target)` bracket an
///    access epoch towards one target. Shared locks admit concurrent
///    readers; an exclusive lock excludes all other origins. Pending ops for
///    the target are drained inside `unlock()` *before* the lock is
///    released, so the next lock holder observes them. Lock waiters prune
///    holders that died (ULFM) instead of waiting on them forever.
///
/// Ordering/atomicity: applied ops take a per-target apply mutex, so
/// concurrent accumulates to the same target are element-wise atomic (the
/// MPI accumulate guarantee). Accumulates apply *eagerly* at call time —
/// user-defined reduction ops handed in by the binding layer are only valid
/// for the duration of the wrapper call (see kamping::OpActivation), so they
/// must not sit in a queue.
///
/// Zero-copy: a put with a contiguous origin datatype queues a *reference*
/// to the caller's buffer and the drain is a single memcpy into the target
/// region (counted in rma_bytes_zero_copied); the caller's buffer must stay
/// valid until the closing synchronization call, exactly as in MPI. Puts
/// with non-contiguous origin layouts pack into a PayloadPool buffer at call
/// time instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <memory>
#include <vector>

#include "xmpi/datatype.hpp"
#include "xmpi/op.hpp"
#include "xmpi/profile.hpp"

namespace xmpi {

class Comm;
class World;

/// @name Passive-target lock types (MPI_LOCK_*)
/// @{
inline constexpr int LOCK_SHARED    = 1;
inline constexpr int LOCK_EXCLUSIVE = 2;
/// @}

/// @brief An RMA window: per-rank exposed memory over one communicator.
///
/// Created collectively via detail::win_create (the leader allocates, the
/// pointer is broadcast, every member exposes its region, a barrier makes
/// the table visible — the same shared-object idiom as communicator
/// creation). Reference counted with one count per member, dropped by
/// win_free.
class Win {
public:
    /// @brief One rank's exposed region.
    struct RankMemory {
        void* base = nullptr;
        std::size_t bytes = 0;
        int disp_unit = 1;
    };

    /// @brief Constructs the shared window object for @c comm (leader only;
    /// use detail::win_create). Starts with one refcount per comm member.
    explicit Win(Comm* comm);
    ~Win();

    Win(Win const&) = delete;
    Win& operator=(Win const&) = delete;

    [[nodiscard]] Comm& comm() const { return *comm_; }
    [[nodiscard]] World& world() const;
    [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }

    /// @brief Publishes the calling rank's exposed region (win_create only;
    /// the creation barrier orders it before any remote access).
    void expose(int comm_rank, void* base, std::size_t bytes, int disp_unit);
    /// @brief Allocates a zero-initialized *library-owned* region for
    /// @c comm_rank and exposes it (win_allocate only). Owned regions live
    /// exactly as long as this Win object — until the last member dropped
    /// its reference — so a remote atomic can never dangle on storage that
    /// unwound with a failed member's stack (the hazard of exposing
    /// caller-scoped memory under ULFM kills).
    void* allocate_region(int comm_rank, std::size_t bytes, int disp_unit);
    [[nodiscard]] RankMemory const& memory_of(int comm_rank) const {
        return ranks_[static_cast<std::size_t>(comm_rank)];
    }

    /// @name One-sided operations (origin = calling rank). Return XMPI codes.
    /// @{
    int put(
        void const* origin_addr, std::size_t origin_count, Datatype& origin_type, int target,
        std::ptrdiff_t target_disp, std::size_t target_count, Datatype& target_type);
    int get(
        void* origin_addr, std::size_t origin_count, Datatype& origin_type, int target,
        std::ptrdiff_t target_disp, std::size_t target_count, Datatype& target_type);
    /// @brief Applied eagerly (element-wise atomic under the target's apply
    /// mutex); requires contiguous origin and target datatypes.
    int accumulate(
        void const* origin_addr, std::size_t origin_count, Datatype& origin_type, int target,
        std::ptrdiff_t target_disp, std::size_t target_count, Datatype& target_type,
        Op const& op);
    /// @brief Atomic read-modify-write of one element: fetches the target
    /// value into @c result_addr, then applies `target = op(origin, target)`,
    /// all under the target's apply mutex. Eager like accumulate — the
    /// fetched value is valid on return (MPI_Fetch_and_op + flush collapsed
    /// to the in-process essence). Requires a contiguous datatype.
    int fetch_and_op(
        void const* origin_addr, void* result_addr, Datatype& datatype, int target,
        std::ptrdiff_t target_disp, Op const& op);
    /// @brief Atomic compare-and-swap of one element: fetches the target
    /// value into @c result_addr and, iff it equals @c compare_addr
    /// byte-wise, stores @c origin_addr — under the target's apply mutex,
    /// valid on return. The CAS succeeded iff the fetched value equals the
    /// compare value. Requires a contiguous datatype.
    int compare_and_swap(
        void const* origin_addr, void const* compare_addr, void* result_addr,
        Datatype& datatype, int target, std::ptrdiff_t target_disp);
    /// @}

    /// @name Synchronization
    /// @{
    int fence();
    int lock(int lock_type, int target);
    int unlock(int target);
    /// @}

    /// @brief True iff the calling rank may access @c target right now
    /// (inside a fence epoch or holding a lock on the target).
    [[nodiscard]] bool epoch_open(int origin, int target);

    /// @brief Preconditions for win_free on the calling rank: no lock held,
    /// no pending ops. Returns XMPI_ERR_RMA_SYNC when violated.
    int check_free(int origin);

    /// @name Reference counting (one count per comm member)
    /// @{
    void retain() { refcount_.fetch_add(1, std::memory_order_relaxed); }
    void release();
    /// @}

private:
    /// @brief A queued put/get, applied when the origin's epoch closes.
    struct PendingOp {
        enum class Kind : std::uint8_t { put, get };
        Kind kind = Kind::put;
        int target = -1;               ///< comm rank
        std::size_t offset_bytes = 0;  ///< into the target's exposed region
        std::size_t origin_count = 0;
        std::size_t target_count = 0;
        Datatype* origin_type = nullptr; ///< retained (gets only)
        Datatype* target_type = nullptr; ///< retained
        void const* origin_read = nullptr; ///< zero-copy put source
        void* origin_write = nullptr;      ///< get destination
        std::vector<std::byte> staged;     ///< packed payload (pooled)
    };

    /// @brief Passive-target lock state of one target rank (under mutex_).
    struct TargetLock {
        int exclusive_holder = -1;      ///< comm rank, -1 if none
        std::vector<int> shared_holders; ///< comm ranks
    };

    [[nodiscard]] profile::RankCounters& counters_of(int comm_rank) const;
    [[nodiscard]] bool target_failed(int comm_rank) const;

    /// @brief Common op validation: rank range, displacement, epoch, bounds,
    /// failure state, matching transfer sizes. On success fills @c offset.
    int check_op(
        int origin, int target, std::ptrdiff_t target_disp, std::size_t origin_count,
        Datatype const& origin_type, std::size_t target_count, Datatype const& target_type,
        std::size_t& offset);

    /// @brief Applies every pending op of @c origin (all targets, or only
    /// @c target_filter when >= 0); returns the first error, keeps going.
    int drain_pending(int origin, int target_filter);
    int apply_pending(PendingOp& op, profile::RankCounters& counters);
    void discard_pending(PendingOp& op);

    [[nodiscard]] bool holds_lock_locked(int origin, int target) const;
    [[nodiscard]] bool holds_any_lock_locked(int origin) const;
    /// @brief Drops lock holders whose rank has failed (ULFM: a dead holder
    /// must not block live origins forever).
    void prune_failed_holders_locked();

    Comm* comm_;                        ///< retained
    std::vector<RankMemory> ranks_;     ///< slot i written by rank i pre-barrier
    std::vector<std::vector<std::byte>> owned_; ///< win_allocate regions, same slot discipline
    std::vector<char> fence_open_;      ///< per-rank, touched only by the owner
    std::vector<std::vector<PendingOp>> pending_; ///< per-origin, owner-only
    std::vector<TargetLock> locks_;     ///< under mutex_
    int blocked_lockers_ = 0;           ///< under mutex_; unlock notifies iff > 0
    std::unique_ptr<std::mutex[]> apply_mutex_; ///< per-target op application
    std::mutex mutex_;
    std::atomic<int> refcount_{1};
};

namespace detail {

/// @brief Collective window creation over @c comm (see Win). On success
/// every member holds one reference to the same Win in @c *win.
int win_create(void* base, std::size_t bytes, int disp_unit, Comm& comm, Win** win);

/// @brief Collective window creation with library-owned regions: each
/// member's zero-initialized region is allocated inside the Win and freed
/// with it (see Win::allocate_region). @c *baseptr receives the caller's
/// region.
int win_allocate(std::size_t bytes, int disp_unit, Comm& comm, void** baseptr, Win** win);

/// @brief Collective window destruction: barrier, then drop one reference.
int win_free(Win& win);

} // namespace detail

} // namespace xmpi
