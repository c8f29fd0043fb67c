/// @file comm_mgmt.cpp
/// @brief Communicator creation collectives: dup, split, create, and sparse
/// graph topology creation.
///
/// All ranks of one process share a single Comm object, so "agreeing" on the
/// new communicator reduces to distributing the object pointer — but the
/// *communication cost* of the operation is modelled faithfully: each
/// creation performs the same message pattern a real implementation would
/// (an allgather over the parent communicator), which is what makes
/// rebuild-the-topology-per-step experiments meaningful (paper Section V-A).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"

namespace xmpi::detail {
namespace {

/// @brief Sets the handle refcount to one per member (each member rank later
/// calls XMPI_Comm_free exactly once).
Comm* with_member_refcounts(Comm* comm) {
    for (int i = 1; i < comm->size(); ++i) {
        comm->retain();
    }
    return comm;
}

/// @brief Leader (lowest comm rank of the members subset) creates the new
/// communicator and distributes the pointer to the other members via p2p in
/// the parent's collective context. @c member_parent_ranks must be identical
/// on all participating ranks and sorted by new-comm rank order.
Comm* distribute_new_comm(
    Comm& parent, std::vector<int> const& member_parent_ranks,
    std::vector<int> world_members, Comm const* copy_topology_from = nullptr) {
    int const me = parent.rank();
    int const leader = member_parent_ranks.front();
    auto* byte_type = predefined_type(BuiltinType::byte_);
    CollChannel const channel{parent.collective_context(), coll_tag::comm_create};

    if (me == leader) {
        auto* newcomm =
            with_member_refcounts(new Comm(&parent.world(), std::move(world_members)));
        if (copy_topology_from != nullptr) {
            newcomm->copy_topology_table_from(*copy_topology_from);
        }
        auto const handle = reinterpret_cast<std::uintptr_t>(newcomm);
        for (std::size_t i = 1; i < member_parent_ranks.size(); ++i) {
            channel_send(
                parent, channel, member_parent_ranks[i], &handle, sizeof(handle), *byte_type);
        }
        return newcomm;
    }
    std::uintptr_t handle = 0;
    channel_recv(parent, channel, leader, &handle, sizeof(handle), *byte_type);
    return reinterpret_cast<Comm*>(handle);
}

/// @brief Allgather of two ints per rank — the message pattern a real
/// implementation's agreement step performs.
int allgather_pair(Comm& comm, int const (&mine)[2], int* all) {
    auto const* int_type = predefined_type(BuiltinType::int_);
    return run_blocking(
        tuning::CollOp::allgather,
        {.comm = &comm, .sendbuf = mine, .recvbuf = all, .sendcount = 2, .recvcount = 2,
         .sendtype = int_type, .recvtype = int_type});
}

} // namespace

int comm_dup(Comm& comm, Comm** newcomm) {
    if (int const err = check_peer(comm, ANY_SOURCE); err != XMPI_SUCCESS) {
        return err;
    }
    std::vector<int> parent_ranks(static_cast<std::size_t>(comm.size()));
    for (int i = 0; i < comm.size(); ++i) {
        parent_ranks[static_cast<std::size_t>(i)] = i;
    }
    *newcomm = distribute_new_comm(comm, parent_ranks, comm.members(), &comm);
    return XMPI_SUCCESS;
}

int comm_split(Comm& comm, int color, int key, Comm** newcomm) {
    if (int const err = check_peer(comm, ANY_SOURCE); err != XMPI_SUCCESS) {
        return err;
    }
    int const p = comm.size();
    // Allgather (color, key) — the message pattern a real split performs.
    std::vector<int> colors_keys(2 * static_cast<std::size_t>(p));
    int const mine[2] = {color, key};
    if (int const err = allgather_pair(comm, mine, colors_keys.data()); err != XMPI_SUCCESS) {
        return err;
    }
    if (color == UNDEFINED) {
        *newcomm = nullptr;
        return XMPI_SUCCESS;
    }
    // Members of my color group, ordered by (key, parent rank).
    std::vector<int> group;
    for (int i = 0; i < p; ++i) {
        if (colors_keys[2 * static_cast<std::size_t>(i)] == color) {
            group.push_back(i);
        }
    }
    std::stable_sort(group.begin(), group.end(), [&](int a, int b) {
        return colors_keys[2 * static_cast<std::size_t>(a) + 1]
               < colors_keys[2 * static_cast<std::size_t>(b) + 1];
    });
    std::vector<int> world_members;
    world_members.reserve(group.size());
    for (int parent_rank: group) {
        world_members.push_back(comm.world_rank_of(parent_rank));
    }
    // The leader for pointer distribution is the first member in new-comm
    // rank order; distribute_new_comm sends along that order.
    *newcomm = distribute_new_comm(comm, group, std::move(world_members));
    return XMPI_SUCCESS;
}

int comm_create(Comm& comm, Group const& group, Comm** newcomm) {
    if (int const err = check_peer(comm, ANY_SOURCE); err != XMPI_SUCCESS) {
        return err;
    }
    // Synchronise like a real implementation (context-id agreement).
    if (int const err = run_blocking(tuning::CollOp::barrier, {.comm = &comm});
        err != XMPI_SUCCESS) {
        return err;
    }
    int const my_world_rank = current_world_rank();
    if (group.rank_of(my_world_rank) == UNDEFINED) {
        *newcomm = nullptr;
        return XMPI_SUCCESS;
    }
    std::vector<int> member_parent_ranks;
    member_parent_ranks.reserve(group.world_ranks().size());
    for (int world_rank: group.world_ranks()) {
        int const parent_rank = comm.comm_rank_of_world_rank(world_rank);
        if (parent_rank == UNDEFINED) {
            return XMPI_ERR_GROUP;
        }
        member_parent_ranks.push_back(parent_rank);
    }
    *newcomm = distribute_new_comm(comm, member_parent_ranks, group.world_ranks());
    return XMPI_SUCCESS;
}

int dist_graph_create_adjacent(
    Comm& comm, int indegree, int const* sources, int outdegree, int const* destinations,
    Comm** newcomm) {
    if (int const err = check_peer(comm, ANY_SOURCE); err != XMPI_SUCCESS) {
        return err;
    }
    GraphTopology topology;
    topology.sources.assign(sources, sources + indegree);
    topology.destinations.assign(destinations, destinations + outdegree);

    // Cost model: real implementations exchange adjacency information across
    // the whole communicator when building a graph topology (typically via
    // allgather); we perform the same pattern with the degree counts. This is
    // what makes "rebuild the graph communicator before every exchange" a
    // non-scalable strategy, as reported in the paper.
    std::vector<int> degrees(2 * static_cast<std::size_t>(comm.size()));
    int const mine[2] = {indegree, outdegree};
    if (int const err = allgather_pair(comm, mine, degrees.data()); err != XMPI_SUCCESS) {
        return err;
    }

    std::vector<int> parent_ranks(static_cast<std::size_t>(comm.size()));
    for (int i = 0; i < comm.size(); ++i) {
        parent_ranks[static_cast<std::size_t>(i)] = i;
    }
    // Topology objects are per-rank in MPI; our Comm is shared, so the
    // communicator stores no adjacency and each rank's lists live in a
    // per-rank side table keyed by (comm, rank) — see Comm::topology().
    // Simplification: we instead construct one shared communicator whose
    // topology is *rank-dependent*; to keep the shared-object design, each
    // rank registers its own adjacency after creation.
    *newcomm = distribute_new_comm(comm, parent_ranks, comm.members());
    (*newcomm)->set_rank_topology(comm.rank(), std::move(topology));
    // All ranks must have registered before any neighborhood collective runs.
    return run_blocking(tuning::CollOp::barrier, {.comm = *newcomm});
}

} // namespace xmpi::detail
