#include "xmpi/comm.hpp"

#include <algorithm>

#include "kassert/kassert.hpp"
#include "xmpi/world.hpp"

namespace xmpi {

int Group::rank_of(int world_rank) const {
    auto const it = std::find(world_ranks_.begin(), world_ranks_.end(), world_rank);
    if (it == world_ranks_.end()) {
        return UNDEFINED;
    }
    return static_cast<int>(it - world_ranks_.begin());
}

Group* Group::incl(std::vector<int> const& ranks) const {
    std::vector<int> selected;
    selected.reserve(ranks.size());
    for (int rank: ranks) {
        KASSERT(rank >= 0 && rank < size(), "group rank out of range");
        selected.push_back(world_ranks_[static_cast<std::size_t>(rank)]);
    }
    return new Group(std::move(selected));
}

Group* Group::excl(std::vector<int> const& ranks) const {
    std::vector<bool> excluded(world_ranks_.size(), false);
    for (int rank: ranks) {
        KASSERT(rank >= 0 && rank < size(), "group rank out of range");
        excluded[static_cast<std::size_t>(rank)] = true;
    }
    std::vector<int> selected;
    for (std::size_t i = 0; i < world_ranks_.size(); ++i) {
        if (!excluded[i]) {
            selected.push_back(world_ranks_[i]);
        }
    }
    return new Group(std::move(selected));
}

Group* Group::union_with(Group const& other) const {
    std::vector<int> result = world_ranks_;
    for (int world_rank: other.world_ranks_) {
        if (rank_of(world_rank) == UNDEFINED) {
            result.push_back(world_rank);
        }
    }
    return new Group(std::move(result));
}

Group* Group::intersection_with(Group const& other) const {
    std::vector<int> result;
    for (int world_rank: world_ranks_) {
        if (other.rank_of(world_rank) != UNDEFINED) {
            result.push_back(world_rank);
        }
    }
    return new Group(std::move(result));
}

Group* Group::difference_with(Group const& other) const {
    std::vector<int> result;
    for (int world_rank: world_ranks_) {
        if (other.rank_of(world_rank) == UNDEFINED) {
            result.push_back(world_rank);
        }
    }
    return new Group(std::move(result));
}

Comm::Comm(World* world, std::vector<int> members)
    : world_(world),
      members_(std::move(members)),
      pt2pt_context_(world->allocate_context()),
      collective_context_(world->allocate_context()),
      nbc_context_(world->allocate_context()),
      rank_topologies_(members_.size()) {
    world_to_comm_rank_.reserve(members_.size());
    for (std::size_t comm_rank = 0; comm_rank < members_.size(); ++comm_rank) {
        world_to_comm_rank_.emplace(members_[comm_rank], static_cast<int>(comm_rank));
    }
    nbc_sequence_ = std::make_unique<std::atomic<std::uint32_t>[]>(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
        nbc_sequence_[i].store(0, std::memory_order_relaxed);
    }
    ibarrier_.next_round_of_rank.assign(members_.size(), 0);
}

Comm::~Comm() {
    // A rendezvous round whose last pending consumers all died leaves its
    // result parked in the sync structure; dispose of it with the round's
    // retire callback (no threads can race us in the destructor).
    if (ft_.result != nullptr && ft_.retire) {
        ft_.retire(ft_.result);
    }
}

void Comm::notify_members() const {
    for (int world_rank: members_) {
        world_->waiter(world_rank).notify();
    }
}

int Comm::rank() const {
    return comm_rank_of_world_rank(detail::current_world_rank());
}

int Comm::comm_rank_of_world_rank(int world_rank) const {
    auto const it = world_to_comm_rank_.find(world_rank);
    if (it == world_to_comm_rank_.end()) {
        return UNDEFINED;
    }
    return it->second;
}

bool Comm::epoch_stale() const {
    return epoch_gated_ && world_->membership_epoch() != birth_epoch_;
}

bool Comm::any_member_failed() const {
    if (!world_->any_failed()) {
        return false;
    }
    return std::any_of(members_.begin(), members_.end(), [&](int world_rank) {
        return world_->is_failed(world_rank);
    });
}

std::vector<int> Comm::surviving_members() const {
    std::vector<int> survivors;
    survivors.reserve(members_.size());
    for (int world_rank: members_) {
        if (!world_->is_failed(world_rank)) {
            survivors.push_back(world_rank);
        }
    }
    return survivors;
}

} // namespace xmpi
