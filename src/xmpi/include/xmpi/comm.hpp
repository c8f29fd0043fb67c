/// @file comm.hpp
/// @brief Communicators, groups, and (sparse graph) topologies.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace xmpi {

class World;

/// @brief An ordered set of world ranks (mirrors MPI_Group). Reference
/// counted handle semantics.
class Group {
public:
    explicit Group(std::vector<int> world_ranks) : world_ranks_(std::move(world_ranks)) {}

    [[nodiscard]] int size() const { return static_cast<int>(world_ranks_.size()); }
    [[nodiscard]] std::vector<int> const& world_ranks() const { return world_ranks_; }

    /// @brief Rank of the given world rank within this group, or UNDEFINED.
    [[nodiscard]] int rank_of(int world_rank) const;

    /// @name Group set operations (each returns a new group handle)
    /// @{
    [[nodiscard]] Group* incl(std::vector<int> const& ranks) const;
    [[nodiscard]] Group* excl(std::vector<int> const& ranks) const;
    [[nodiscard]] Group* union_with(Group const& other) const;
    [[nodiscard]] Group* intersection_with(Group const& other) const;
    [[nodiscard]] Group* difference_with(Group const& other) const;
    /// @}

    void retain() { refcount_.fetch_add(1, std::memory_order_relaxed); }
    void release() {
        if (refcount_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete this;
        }
    }

private:
    std::vector<int> world_ranks_;
    std::atomic<int> refcount_{1};
};

/// @brief Sparse graph topology attached to a communicator
/// (MPI_Dist_graph_create_adjacent).
struct GraphTopology {
    std::vector<int> sources;      ///< comm ranks we receive from
    std::vector<int> destinations; ///< comm ranks we send to
};

namespace detail {

/// @brief Shared synchronisation state for non-blocking barriers on one
/// communicator. Each rank's i-th ibarrier call joins round i; a round
/// completes once all ranks arrived. Rounds complete in order because every
/// rank enters them in order.
struct IbarrierSync {
    std::mutex mutex;
    std::vector<std::uint64_t> next_round_of_rank; ///< per comm rank
    std::map<std::uint64_t, int> arrivals;         ///< round -> #arrived
    std::uint64_t completed_rounds = 0;            ///< rounds [0, this) done
};

/// @brief Shared state for the fault-tolerant collectives (shrink / agree),
/// which must complete among the *surviving* ranks only and therefore cannot
/// use the regular transport (it errors out on failed peers).
/// Membership of a round is tracked by explicit world-rank lists (not
/// counters): a rank that dies mid-round — after contributing, or before
/// picking up the result — is pruned from the lists on every wake, so the
/// round completes among the actual survivors instead of waiting forever for
/// a dead rank's arrival or consumption.
struct FtSync {
    std::mutex mutex;
    std::vector<int> arrived_ranks; ///< world ranks that entered the open round
    std::vector<int> pending_ranks; ///< world ranks yet to pick up the result
    void* result = nullptr;         ///< round result (e.g. the shrunken communicator)
    std::function<void(void*)> retire; ///< disposes @c result when a round closes
    int agree_accumulator = ~0;     ///< bitwise-AND accumulator for agree()
};

} // namespace detail

/// @brief A communicator: a group of ranks with private matching contexts.
///
/// One Comm object is shared by all member ranks (they run in one process);
/// the calling rank is derived from the thread-local rank context. Each
/// communicator owns two context ids: one for point-to-point traffic and a
/// disjoint one for the internal messages of collective operations, so user
/// messages can never match collective-internal ones.
class Comm {
public:
    Comm(World* world, std::vector<int> members);
    ~Comm();

    Comm(Comm const&) = delete;
    Comm& operator=(Comm const&) = delete;

    [[nodiscard]] World& world() const { return *world_; }
    [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
    /// @brief Rank of the *calling thread* within this communicator.
    [[nodiscard]] int rank() const;
    /// @brief World rank of the given comm rank.
    [[nodiscard]] int world_rank_of(int comm_rank) const { return members_[comm_rank]; }
    [[nodiscard]] std::vector<int> const& members() const { return members_; }
    /// @brief Comm rank of a world rank, or UNDEFINED if not a member.
    [[nodiscard]] int comm_rank_of_world_rank(int world_rank) const;

    [[nodiscard]] int pt2pt_context() const { return pt2pt_context_; }
    [[nodiscard]] int collective_context() const { return collective_context_; }
    /// @brief Context for non-blocking collectives; their messages are
    /// disambiguated by a per-initiation sequence tag, so several may be in
    /// flight concurrently (they must be initiated in the same order on all
    /// ranks, as the MPI standard requires).
    [[nodiscard]] int nbc_context() const { return nbc_context_; }
    /// @brief Per-rank initiation counter: collectives are initiated in the
    /// same order on all ranks (MPI rule), so the i-th non-blocking
    /// collective gets the same tag everywhere.
    [[nodiscard]] int next_nbc_sequence() {
        auto& counter = nbc_sequence_[static_cast<std::size_t>(rank())];
        return static_cast<int>(counter.fetch_add(1, std::memory_order_relaxed) % 0x3fffffff);
    }

    /// @name Graph topology (per rank: each rank has its own adjacency)
    /// @{
    [[nodiscard]] bool has_topology() const {
        return has_topology_.load(std::memory_order_acquire);
    }
    /// @brief The *calling rank's* adjacency lists.
    [[nodiscard]] GraphTopology const& topology() const {
        return rank_topologies_[static_cast<std::size_t>(rank())];
    }
    /// @brief Registers the adjacency of one rank (each rank writes only its
    /// own slot during topology creation, so no locking is needed).
    void set_rank_topology(int comm_rank, GraphTopology topology) {
        rank_topologies_[static_cast<std::size_t>(comm_rank)] = std::move(topology);
        has_topology_.store(true, std::memory_order_release);
    }
    /// @brief Copies the whole topology table (communicator duplication).
    void copy_topology_table_from(Comm const& other) {
        rank_topologies_ = other.rank_topologies_;
        has_topology_.store(other.has_topology(), std::memory_order_release);
    }
    /// @}

    /// @name ULFM state
    /// @{
    [[nodiscard]] bool revoked() const { return revoked_.load(std::memory_order_acquire); }
    void mark_revoked() { revoked_.store(true, std::memory_order_release); }
    /// @brief True iff any member rank has failed.
    [[nodiscard]] bool any_member_failed() const;
    /// @brief World ranks of surviving members, in comm rank order.
    [[nodiscard]] std::vector<int> surviving_members() const;
    /// @}

    /// @name Membership-epoch state (elastic worlds, see elastic.hpp)
    /// @{
    /// @brief Gates this communicator on membership epoch @c epoch: once the
    /// world moves past it, every operation reports XMPI_ERR_EPOCH. Only the
    /// per-epoch elastic communicators are gated; derived communicators
    /// (dup/split) and non-elastic worlds are never affected.
    void set_epoch_gate(std::uint64_t epoch) {
        birth_epoch_ = epoch;
        epoch_gated_ = true;
    }
    [[nodiscard]] bool epoch_gated() const { return epoch_gated_; }
    [[nodiscard]] std::uint64_t birth_epoch() const { return birth_epoch_; }
    /// @brief True iff this communicator is gated and the world's membership
    /// has moved past its birth epoch.
    [[nodiscard]] bool epoch_stale() const;
    /// @}

    [[nodiscard]] detail::IbarrierSync& ibarrier_sync() { return ibarrier_; }
    [[nodiscard]] detail::FtSync& ft_sync() { return ft_; }
    /// @brief Notifies the Waiter of every member (a shared round of this
    /// communicator changed state).
    void notify_members() const;

    /// @name Handle reference counting
    /// @{
    void retain() { refcount_.fetch_add(1, std::memory_order_relaxed); }
    void release() {
        if (refcount_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete this;
        }
    }
    /// @}

private:
    World* world_;
    std::vector<int> members_;
    std::unordered_map<int, int> world_to_comm_rank_;
    int pt2pt_context_;
    int collective_context_;
    int nbc_context_;
    std::unique_ptr<std::atomic<std::uint32_t>[]> nbc_sequence_;
    std::vector<GraphTopology> rank_topologies_;
    std::atomic<bool> has_topology_{false};
    std::atomic<bool> revoked_{false};
    std::uint64_t birth_epoch_ = 0; ///< written before the comm is published
    bool epoch_gated_ = false;
    detail::IbarrierSync ibarrier_;
    detail::FtSync ft_;
    std::atomic<int> refcount_{1};
};

} // namespace xmpi
