#include "xmpi/win.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "xmpi/chaos.hpp"
#include "xmpi/comm.hpp"
#include "xmpi/world.hpp"

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"

namespace xmpi {
namespace {

/// Memory footprint of @c count elements of @c type in a target buffer
/// (extent-strided, so it covers non-contiguous layouts too).
std::size_t footprint_bytes(Datatype const& type, std::size_t count) {
    if (count == 0) {
        return 0;
    }
    return static_cast<std::size_t>(type.extent()) * count;
}

} // namespace

Win::Win(Comm* comm)
    : comm_(comm),
      ranks_(static_cast<std::size_t>(comm->size())),
      owned_(static_cast<std::size_t>(comm->size())),
      fence_open_(static_cast<std::size_t>(comm->size()), 0),
      pending_(static_cast<std::size_t>(comm->size())),
      locks_(static_cast<std::size_t>(comm->size())),
      apply_mutex_(std::make_unique<std::mutex[]>(static_cast<std::size_t>(comm->size()))) {
    comm_->retain();
}

Win::~Win() {
    // A member that died mid-epoch leaves queued ops behind: drop them
    // (releasing the retained datatypes) instead of applying ops for a rank
    // whose buffers are gone.
    for (auto& queue: pending_) {
        for (auto& op: queue) {
            discard_pending(op);
        }
    }
    comm_->release();
}

void Win::release() {
    if (refcount_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete this;
    }
}

World& Win::world() const {
    return comm_->world();
}

void Win::expose(int comm_rank, void* base, std::size_t bytes, int disp_unit) {
    ranks_[static_cast<std::size_t>(comm_rank)] = RankMemory{base, bytes, disp_unit};
}

void* Win::allocate_region(int comm_rank, std::size_t bytes, int disp_unit) {
    auto& region = owned_[static_cast<std::size_t>(comm_rank)];
    region.assign(bytes, std::byte{0});
    expose(comm_rank, region.data(), bytes, disp_unit);
    return region.data();
}

profile::RankCounters& Win::counters_of(int comm_rank) const {
    return comm_->world().counters(comm_->world_rank_of(comm_rank));
}

bool Win::target_failed(int comm_rank) const {
    return comm_->world().is_failed(comm_->world_rank_of(comm_rank));
}

bool Win::epoch_open(int origin, int target) {
    if (fence_open_[static_cast<std::size_t>(origin)] != 0) {
        return true;
    }
    std::lock_guard lock(mutex_);
    return holds_lock_locked(origin, target);
}

int Win::check_free(int origin) {
    if (!pending_[static_cast<std::size_t>(origin)].empty()) {
        return XMPI_ERR_RMA_SYNC;
    }
    std::lock_guard lock(mutex_);
    if (holds_any_lock_locked(origin)) {
        return XMPI_ERR_RMA_SYNC;
    }
    return XMPI_SUCCESS;
}

bool Win::holds_lock_locked(int origin, int target) const {
    auto const& state = locks_[static_cast<std::size_t>(target)];
    if (state.exclusive_holder == origin) {
        return true;
    }
    return std::find(state.shared_holders.begin(), state.shared_holders.end(), origin)
           != state.shared_holders.end();
}

bool Win::holds_any_lock_locked(int origin) const {
    for (int target = 0; target < size(); ++target) {
        if (holds_lock_locked(origin, target)) {
            return true;
        }
    }
    return false;
}

void Win::prune_failed_holders_locked() {
    for (auto& state: locks_) {
        if (state.exclusive_holder != -1 && target_failed(state.exclusive_holder)) {
            state.exclusive_holder = -1;
        }
        std::erase_if(state.shared_holders, [&](int holder) { return target_failed(holder); });
    }
}

// ---------------------------------------------------------------------------
// One-sided operations
// ---------------------------------------------------------------------------

int Win::check_op(
    int origin, int target, std::ptrdiff_t target_disp, std::size_t origin_count,
    Datatype const& origin_type, std::size_t target_count, Datatype const& target_type,
    std::size_t& offset) {
    if (origin < 0) {
        return XMPI_ERR_COMM; // calling thread is not a member of the window's comm
    }
    if (target < 0 || target >= size()) {
        return XMPI_ERR_RANK;
    }
    if (target_disp < 0) {
        return XMPI_ERR_ARG;
    }
    if (!epoch_open(origin, target)) {
        return XMPI_ERR_RMA_SYNC;
    }
    auto const& mem = ranks_[static_cast<std::size_t>(target)];
    offset = static_cast<std::size_t>(target_disp) * static_cast<std::size_t>(mem.disp_unit);
    if (offset + footprint_bytes(target_type, target_count) > mem.bytes) {
        return XMPI_ERR_RMA_RANGE;
    }
    if (origin_type.packed_size(origin_count) != target_type.packed_size(target_count)) {
        return XMPI_ERR_COUNT;
    }
    if (comm_->revoked()) {
        return XMPI_ERR_REVOKED;
    }
    if (target_failed(target)) {
        return XMPI_ERR_PROC_FAILED;
    }
    return XMPI_SUCCESS;
}

int Win::put(
    void const* origin_addr, std::size_t origin_count, Datatype& origin_type, int target,
    std::ptrdiff_t target_disp, std::size_t target_count, Datatype& target_type) {
    int const origin = comm_->rank();
    std::size_t offset = 0;
    if (int const err = check_op(
            origin, target, target_disp, origin_count, origin_type, target_count, target_type,
            offset);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (target_count == 0) {
        return XMPI_SUCCESS;
    }
    auto& counters = counters_of(origin);
    PendingOp op;
    op.kind = PendingOp::Kind::put;
    op.target = target;
    op.offset_bytes = offset;
    op.origin_count = origin_count;
    op.target_count = target_count;
    op.target_type = &target_type;
    target_type.retain();
    if (origin_type.is_contiguous()) {
        // Zero-copy fast path: queue a reference; the drain is one memcpy.
        // The caller's buffer must stay valid until the closing sync call.
        op.origin_read = origin_addr;
    } else {
        std::size_t const bytes = origin_type.packed_size(origin_count);
        op.staged = comm_->world().payload_pool().acquire(bytes, counters);
        origin_type.pack(origin_addr, origin_count, op.staged.data());
    }
    pending_[static_cast<std::size_t>(origin)].push_back(std::move(op));
    counters.rma_puts.fetch_add(1, std::memory_order_relaxed);
    return XMPI_SUCCESS;
}

int Win::get(
    void* origin_addr, std::size_t origin_count, Datatype& origin_type, int target,
    std::ptrdiff_t target_disp, std::size_t target_count, Datatype& target_type) {
    int const origin = comm_->rank();
    std::size_t offset = 0;
    if (int const err = check_op(
            origin, target, target_disp, origin_count, origin_type, target_count, target_type,
            offset);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (target_count == 0) {
        return XMPI_SUCCESS;
    }
    PendingOp op;
    op.kind = PendingOp::Kind::get;
    op.target = target;
    op.offset_bytes = offset;
    op.origin_count = origin_count;
    op.target_count = target_count;
    op.origin_type = &origin_type;
    origin_type.retain();
    op.target_type = &target_type;
    target_type.retain();
    op.origin_write = origin_addr;
    pending_[static_cast<std::size_t>(origin)].push_back(std::move(op));
    counters_of(origin).rma_gets.fetch_add(1, std::memory_order_relaxed);
    return XMPI_SUCCESS;
}

int Win::accumulate(
    void const* origin_addr, std::size_t origin_count, Datatype& origin_type, int target,
    std::ptrdiff_t target_disp, std::size_t target_count, Datatype& target_type, Op const& op) {
    int const origin = comm_->rank();
    std::size_t offset = 0;
    if (int const err = check_op(
            origin, target, target_disp, origin_count, origin_type, target_count, target_type,
            offset);
        err != XMPI_SUCCESS) {
        return err;
    }
    // Accumulate applies eagerly (user-supplied reduction functions from the
    // binding layer are only valid during the call), so both layouts must be
    // contiguous for Op::apply to read/write them in place.
    if (!origin_type.is_contiguous() || !target_type.is_contiguous()) {
        return XMPI_ERR_TYPE;
    }
    if (target_count == 0) {
        return XMPI_SUCCESS;
    }
    auto const& mem = ranks_[static_cast<std::size_t>(target)];
    std::byte* const dst = static_cast<std::byte*>(mem.base) + offset;
    {
        // Per-target serialization makes concurrent accumulates element-wise
        // atomic (the MPI accumulate guarantee).
        std::lock_guard apply_lock(apply_mutex_[static_cast<std::size_t>(target)]);
        op.apply(origin_addr, dst, target_count, target_type);
    }
    counters_of(origin).rma_accumulates.fetch_add(1, std::memory_order_relaxed);
    return XMPI_SUCCESS;
}

int Win::fetch_and_op(
    void const* origin_addr, void* result_addr, Datatype& datatype, int target,
    std::ptrdiff_t target_disp, Op const& op) {
    int const origin = comm_->rank();
    std::size_t offset = 0;
    if (int const err =
            check_op(origin, target, target_disp, 1, datatype, 1, datatype, offset);
        err != XMPI_SUCCESS) {
        return err;
    }
    // Eager like accumulate: the fetched value must be usable on return, and
    // binding-layer user ops are only valid during the wrapper call.
    if (!datatype.is_contiguous()) {
        return XMPI_ERR_TYPE;
    }
    auto const& mem = ranks_[static_cast<std::size_t>(target)];
    std::byte* const dst = static_cast<std::byte*>(mem.base) + offset;
    std::size_t const bytes = datatype.packed_size(1);
    {
        // The per-target apply mutex makes the fetch + modify one atomic
        // step with respect to every other accumulate/fetch_and_op/CAS
        // aimed at this target.
        std::lock_guard apply_lock(apply_mutex_[static_cast<std::size_t>(target)]);
        std::memcpy(result_addr, dst, bytes);
        op.apply(origin_addr, dst, 1, datatype);
    }
    counters_of(origin).rma_atomics.fetch_add(1, std::memory_order_relaxed);
    return XMPI_SUCCESS;
}

int Win::compare_and_swap(
    void const* origin_addr, void const* compare_addr, void* result_addr, Datatype& datatype,
    int target, std::ptrdiff_t target_disp) {
    int const origin = comm_->rank();
    std::size_t offset = 0;
    if (int const err =
            check_op(origin, target, target_disp, 1, datatype, 1, datatype, offset);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (!datatype.is_contiguous()) {
        return XMPI_ERR_TYPE;
    }
    auto const& mem = ranks_[static_cast<std::size_t>(target)];
    std::byte* const dst = static_cast<std::byte*>(mem.base) + offset;
    std::size_t const bytes = datatype.packed_size(1);
    {
        std::lock_guard apply_lock(apply_mutex_[static_cast<std::size_t>(target)]);
        std::memcpy(result_addr, dst, bytes);
        if (std::memcmp(dst, compare_addr, bytes) == 0) {
            std::memcpy(dst, origin_addr, bytes);
        }
    }
    counters_of(origin).rma_atomics.fetch_add(1, std::memory_order_relaxed);
    return XMPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Pending-op drain
// ---------------------------------------------------------------------------

void Win::discard_pending(PendingOp& op) {
    if (op.origin_type != nullptr) {
        op.origin_type->release();
        op.origin_type = nullptr;
    }
    if (op.target_type != nullptr) {
        op.target_type->release();
        op.target_type = nullptr;
    }
    op.staged = {};
}

int Win::apply_pending(PendingOp& op, profile::RankCounters& counters) {
    if (target_failed(op.target)) {
        // The dead rank's exposed memory may be gone with its stack: drop
        // the op and surface the failure at the sync call.
        return XMPI_ERR_PROC_FAILED;
    }
    auto const& mem = ranks_[static_cast<std::size_t>(op.target)];
    std::byte* const base = static_cast<std::byte*>(mem.base) + op.offset_bytes;
    std::size_t const bytes = op.target_type->packed_size(op.target_count);
    std::lock_guard apply_lock(apply_mutex_[static_cast<std::size_t>(op.target)]);
    if (op.kind == PendingOp::Kind::put) {
        if (op.origin_read != nullptr) {
            if (op.target_type->is_contiguous()) {
                std::memcpy(base, op.origin_read, bytes);
                counters.rma_bytes_zero_copied.fetch_add(bytes, std::memory_order_relaxed);
            } else {
                // Contiguous origin bytes are exactly the packed form.
                op.target_type->unpack(
                    static_cast<std::byte const*>(op.origin_read), op.target_count, base);
            }
        } else {
            if (op.target_type->is_contiguous()) {
                std::memcpy(base, op.staged.data(), bytes);
            } else {
                op.target_type->unpack(op.staged.data(), op.target_count, base);
            }
            comm_->world().payload_pool().release(std::move(op.staged));
            op.staged = {};
        }
    } else {
        if (op.target_type->is_contiguous() && op.origin_type->is_contiguous()) {
            std::memcpy(op.origin_write, base, bytes);
            counters.rma_bytes_zero_copied.fetch_add(bytes, std::memory_order_relaxed);
        } else {
            auto packed = comm_->world().payload_pool().acquire(bytes, counters);
            op.target_type->pack(base, op.target_count, packed.data());
            op.origin_type->unpack(packed.data(), op.origin_count, op.origin_write);
            comm_->world().payload_pool().release(std::move(packed));
        }
    }
    return XMPI_SUCCESS;
}

int Win::drain_pending(int origin, int target_filter) {
    auto& queue = pending_[static_cast<std::size_t>(origin)];
    if (queue.empty()) {
        return XMPI_SUCCESS;
    }
    auto& counters = counters_of(origin);
    int err = XMPI_SUCCESS;
    std::size_t kept = 0;
    for (auto& op: queue) {
        if (target_filter >= 0 && op.target != target_filter) {
            queue[kept++] = std::move(op);
            continue;
        }
        if (int const op_err = apply_pending(op, counters);
            op_err != XMPI_SUCCESS && err == XMPI_SUCCESS) {
            err = op_err;
        }
        discard_pending(op);
    }
    queue.resize(kept);
    return err;
}

// ---------------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------------

int Win::fence() {
    int const origin = comm_->rank();
    if (origin < 0) {
        return XMPI_ERR_COMM;
    }
    {
        std::lock_guard lock(mutex_);
        if (holds_any_lock_locked(origin)) {
            return XMPI_ERR_RMA_SYNC; // active- and passive-target epochs don't mix
        }
    }
    chaos::hit_hook(comm_->world(), comm_->world_rank_of(origin), chaos::Hook::ft_win_fence);
    int err = drain_pending(origin, -1);
    auto& counters = counters_of(origin);
    counters.rma_epoch_waits.fetch_add(1, std::memory_order_relaxed);
    double const barrier_start = wtime();
    int const barrier_err = detail::run_blocking(tuning::CollOp::barrier, {.comm = comm_});
    profile::note_epoch_wait(wtime() - barrier_start);
    if (err == XMPI_SUCCESS) {
        err = barrier_err;
    }
    // A successful fence both closes the previous access epoch and opens the
    // next one. A failed fence (peer death, revocation) closes without
    // reopening: after an errored synchronization the caller must recover
    // explicitly, not keep issuing one-sided ops into a broken epoch.
    fence_open_[static_cast<std::size_t>(origin)] = (err == XMPI_SUCCESS) ? 1 : 0;
    return err;
}

int Win::lock(int lock_type, int target) {
    int const origin = comm_->rank();
    if (origin < 0) {
        return XMPI_ERR_COMM;
    }
    if (lock_type != LOCK_SHARED && lock_type != LOCK_EXCLUSIVE) {
        return XMPI_ERR_ARG;
    }
    if (target < 0 || target >= size()) {
        return XMPI_ERR_RANK;
    }
    World& world = comm_->world();
    int const origin_world = comm_->world_rank_of(origin);
    detail::Mailbox& mailbox = world.mailbox(origin_world);
    bool blocked = false;
    double blocked_since = 0.0;
    {
        std::unique_lock lock(mutex_);
        if (holds_lock_locked(origin, target)) {
            return XMPI_ERR_RMA_SYNC; // no double locking of the same target
        }
        auto& state = locks_[static_cast<std::size_t>(target)];
        detail::wait_locked(world.waiter(origin_world), lock, [&] {
            prune_failed_holders_locked();
            bool const acquirable =
                state.exclusive_holder == -1
                && (lock_type == LOCK_SHARED || state.shared_holders.empty());
            if (acquirable || comm_->revoked() || target_failed(target)) {
                return true;
            }
            if (!blocked) {
                blocked = true;
                blocked_since = wtime();
                ++blocked_lockers_;
                counters_of(origin).rma_epoch_waits.fetch_add(1, std::memory_order_relaxed);
            }
            // While this origin blocks, its transport rings must keep
            // draining: a peer may wait on a rendezvous claim or batch only
            // this rank can consume. (A drain never takes a window mutex.)
            mailbox.poll();
            return false;
        });
        if (blocked) {
            --blocked_lockers_;
        }
        if (comm_->revoked()) {
            return XMPI_ERR_REVOKED;
        }
        if (target_failed(target)) {
            return XMPI_ERR_PROC_FAILED;
        }
        if (lock_type == LOCK_EXCLUSIVE) {
            state.exclusive_holder = origin;
        } else {
            state.shared_holders.push_back(origin);
        }
    }
    if (blocked) {
        profile::note_epoch_wait(wtime() - blocked_since);
    }
    // The hook fires with the lock held: the victim dies as a lock holder,
    // exercising the dead-holder pruning of the waiters above.
    chaos::hit_hook(world, comm_->world_rank_of(origin), chaos::Hook::ft_win_lock);
    return XMPI_SUCCESS;
}

int Win::unlock(int target) {
    int const origin = comm_->rank();
    if (origin < 0) {
        return XMPI_ERR_COMM;
    }
    if (target < 0 || target >= size()) {
        return XMPI_ERR_RANK;
    }
    {
        std::lock_guard lock(mutex_);
        if (!holds_lock_locked(origin, target)) {
            return XMPI_ERR_RMA_SYNC;
        }
    }
    // Drain while still holding the lock so the next holder (who acquires
    // mutex_ after our release below) observes every queued op.
    int const err = drain_pending(origin, target);
    bool wake = false;
    {
        std::lock_guard lock(mutex_);
        auto& state = locks_[static_cast<std::size_t>(target)];
        if (state.exclusive_holder == origin) {
            state.exclusive_holder = -1;
        } else {
            std::erase(state.shared_holders, origin);
        }
        wake = blocked_lockers_ > 0;
    }
    if (wake) {
        comm_->notify_members();
    }
    return err;
}

// ---------------------------------------------------------------------------
// Collective creation / destruction
// ---------------------------------------------------------------------------

namespace detail {
namespace {

/// @brief Broadcasts rank 0's shared-window pointer.
int bcast_handle(Comm& comm, std::uintptr_t* handle) {
    return run_blocking(
        tuning::CollOp::bcast, {.comm = &comm, .recvbuf = handle, .recvcount = sizeof(*handle),
                                .recvtype = predefined_type(BuiltinType::byte_)});
}

} // namespace

int win_create(void* base, std::size_t bytes, int disp_unit, Comm& comm, Win** win) {
    *win = nullptr;
    if (int const err = check_collective(comm); err != XMPI_SUCCESS) {
        return err;
    }
    int const me = comm.rank();
    // Leader-allocates idiom (see comm_mgmt.cpp): rank 0 constructs the
    // shared object pre-loaded with one refcount per member, broadcasts the
    // pointer, every member exposes its region, and the closing barrier
    // orders the table writes before any remote access.
    Win* shared = nullptr;
    if (me == 0) {
        shared = new Win(&comm);
        for (int member = 1; member < comm.size(); ++member) {
            shared->retain();
        }
    }
    std::uintptr_t handle = reinterpret_cast<std::uintptr_t>(shared);
    if (int const err = bcast_handle(comm, &handle); err != XMPI_SUCCESS) {
        if (me == 0) {
            for (int member = 1; member < comm.size(); ++member) {
                shared->release();
            }
            shared->release();
        }
        return err;
    }
    shared = reinterpret_cast<Win*>(handle);
    shared->expose(me, base, bytes, disp_unit);
    int const err = run_blocking(tuning::CollOp::barrier, {.comm = &comm});
    *win = shared;
    return err;
}

int win_allocate(std::size_t bytes, int disp_unit, Comm& comm, void** baseptr, Win** win) {
    *baseptr = nullptr;
    *win = nullptr;
    if (int const err = check_collective(comm); err != XMPI_SUCCESS) {
        return err;
    }
    int const me = comm.rank();
    // Same leader-allocates idiom as win_create; the only difference is that
    // each member's region is allocated *inside* the shared Win, so its
    // lifetime is the window object's (not the caller's scope).
    Win* shared = nullptr;
    if (me == 0) {
        shared = new Win(&comm);
        for (int member = 1; member < comm.size(); ++member) {
            shared->retain();
        }
    }
    std::uintptr_t handle = reinterpret_cast<std::uintptr_t>(shared);
    if (int const err = bcast_handle(comm, &handle); err != XMPI_SUCCESS) {
        if (me == 0) {
            for (int member = 1; member < comm.size(); ++member) {
                shared->release();
            }
            shared->release();
        }
        return err;
    }
    shared = reinterpret_cast<Win*>(handle);
    void* base = shared->allocate_region(me, bytes, disp_unit);
    int const err = run_blocking(tuning::CollOp::barrier, {.comm = &comm});
    *baseptr = base;
    *win = shared;
    return err;
}

int win_free(Win& win) {
    int const me = win.comm().rank();
    if (me < 0) {
        return XMPI_ERR_COMM;
    }
    if (int const err = win.check_free(me); err != XMPI_SUCCESS) {
        return err;
    }
    // Barrier first: no member may drop its reference while a peer could
    // still drain ops into this window. With failed members the barrier
    // reports the failure; the reference is dropped regardless so surviving
    // ranks do not leak theirs.
    int const err = run_blocking(tuning::CollOp::barrier, {.comm = &win.comm()});
    win.release();
    return err;
}

} // namespace detail

} // namespace xmpi
