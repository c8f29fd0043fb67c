/// @file coll_hier.cpp
/// @brief Two-level (hierarchical) collective algorithms.
///
/// Ranks are grouped into "nodes" of XMPI_NODE_SIZE consecutive ranks
/// (tuning::node_size_for(); -1 = the grid plugin's ceil(sqrt p)
/// decomposition). Each node's first rank is its leader; a collective then
/// runs in (up to) three phases — intra-node, leader-level, intra-node —
/// which cuts the total message count roughly in half versus the flat
/// algorithms at the price of extra tree depth. On a machine where
/// intra-node links are faster than inter-node ones that trade is a clear
/// win; the uniform alpha/beta model cannot express it, which is why these
/// entries carry no cost() hook and are reached via the preference layer
/// (node grouping active + latency-bound payload) or a measured tuning
/// table.
#include <cstring>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"
#include "xmpi/netmodel.hpp"

namespace xmpi::detail {
namespace {

/// @brief The contiguous-rank node grouping of one communicator.
struct Grouping {
    int g = 0;          ///< configured group size
    int nnodes = 0;     ///< number of nodes (last may be smaller than g)
    int node = 0;       ///< calling rank's node
    int node_begin = 0; ///< first rank of the node (its leader)
    int node_end = 0;   ///< one past the last rank of the node

    [[nodiscard]] int leader() const { return node_begin; }
    [[nodiscard]] bool is_leader(int r) const { return r == node_begin; }
    [[nodiscard]] static Grouping of(int r, int p, int g) {
        Grouping grp;
        grp.g = g;
        grp.nnodes = (p + g - 1) / g;
        grp.node = r / g;
        grp.node_begin = grp.node * g;
        grp.node_end = grp.node_begin + g < p ? grp.node_begin + g : p;
        return grp;
    }
};

/// @brief Binomial bcast over an explicit participant list (ranks[root_idx]
/// is the root). The caller passes its own index in the list.
int bcast_over(
    Comm& comm, CollChannel channel, std::vector<int> const& ranks, int my_idx, int root_idx,
    void* buffer, std::size_t count, Datatype const& type) {
    int const n = static_cast<int>(ranks.size());
    int const vrank = (my_idx - root_idx + n) % n;
    auto const real = [&](int vr) { return ranks[static_cast<std::size_t>((vr + root_idx) % n)]; };
    int mask = 1;
    while (mask < n) {
        if (vrank & mask) {
            if (int const err =
                    channel_recv(comm, channel, real(vrank - mask), buffer, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < n) {
            if (int const err =
                    channel_send(comm, channel, real(vrank + mask), buffer, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
        }
        mask >>= 1;
    }
    return XMPI_SUCCESS;
}

/// @brief Binomial reduce over an explicit participant list, commutative
/// operations only: folds in place into `buffer`; the result lands at
/// ranks[root_idx].
int reduce_over(
    Comm& comm, CollChannel channel, std::vector<int> const& ranks, int my_idx, int root_idx,
    void* buffer, std::size_t count, Datatype const& type, Op const& op,
    std::vector<std::byte>& incoming) {
    int const n = static_cast<int>(ranks.size());
    int const vrank = (my_idx - root_idx + n) % n;
    auto const real = [&](int vr) { return ranks[static_cast<std::size_t>((vr + root_idx) % n)]; };
    incoming.resize(count * static_cast<std::size_t>(type.extent()));
    int mask = 1;
    while (mask < n) {
        if (vrank & mask) {
            return channel_send(comm, channel, real(vrank - mask), buffer, count, type);
        }
        int const child = vrank + mask;
        if (child < n) {
            if (int const err =
                    channel_recv(comm, channel, real(child), incoming.data(), count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            op.apply(incoming.data(), buffer, count, type);
        }
        mask <<= 1;
    }
    return XMPI_SUCCESS;
}

/// @brief Recursive-doubling allreduce over an explicit participant list
/// (commutative operations only), in place into `buffer`. The same
/// rem-folding as the flat algorithm handles non-power-of-two list sizes.
int rd_allreduce_over(
    Comm& comm, CollChannel channel, std::vector<int> const& ranks, int my_idx, void* buffer,
    std::size_t count, Datatype const& type, Op const& op, std::vector<std::byte>& incoming) {
    int const n = static_cast<int>(ranks.size());
    if (n < 2) {
        return XMPI_SUCCESS;
    }
    incoming.resize(count * static_cast<std::size_t>(type.extent()));
    std::byte* const in = incoming.data();
    auto const peer = [&](int idx) { return ranks[static_cast<std::size_t>(idx)]; };

    int pow2 = 1;
    while (pow2 * 2 <= n) {
        pow2 *= 2;
    }
    int const rem = n - pow2;

    int vrank;
    if (my_idx < 2 * rem) {
        if (my_idx % 2 == 0) {
            if (int const err =
                    channel_send(comm, channel, peer(my_idx + 1), buffer, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            vrank = -1; // sits out the doubling rounds, gets the result back
        } else {
            if (int const err = channel_recv(comm, channel, peer(my_idx - 1), in, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            op.apply(in, buffer, count, type);
            vrank = my_idx / 2;
        }
    } else {
        vrank = my_idx - rem;
    }

    if (vrank >= 0) {
        auto const real = [&](int vr) { return vr < rem ? 2 * vr + 1 : vr + rem; };
        for (int mask = 1; mask < pow2; mask <<= 1) {
            int const partner = peer(real(vrank ^ mask));
            if (int const err = channel_sendrecv(
                    comm, channel, partner, buffer, count, type, partner, in, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            op.apply(in, buffer, count, type);
        }
    }

    if (my_idx < 2 * rem) {
        if (my_idx % 2 == 0) {
            return channel_recv(comm, channel, peer(my_idx + 1), buffer, count, type);
        }
        return channel_send(comm, channel, peer(my_idx - 1), buffer, count, type);
    }
    return XMPI_SUCCESS;
}

[[nodiscard]] std::vector<int> node_ranks(Grouping const& grp) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(grp.node_end - grp.node_begin));
    for (int i = grp.node_begin; i < grp.node_end; ++i) {
        ranks.push_back(i);
    }
    return ranks;
}

[[nodiscard]] std::vector<int> leader_ranks(Grouping const& grp) {
    std::vector<int> ranks;
    ranks.reserve(static_cast<std::size_t>(grp.nnodes));
    for (int nb = 0; nb < grp.nnodes; ++nb) {
        ranks.push_back(nb * grp.g);
    }
    return ranks;
}

/// @brief Two-level bcast: binomial over the leader set (with the root
/// standing in for its own node's leader), then binomial within each node.
int run_bcast_hier(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const g = tuning::node_size_for(p);
    Grouping const grp = Grouping::of(r, p, g);
    int const root = ctx.root;
    int const root_node = root / g;

    // Leader-level participants: one rank per node, the root replacing its
    // own node's leader so phase one starts at the true data source.
    std::vector<int> leaders = leader_ranks(grp);
    leaders[static_cast<std::size_t>(root_node)] = root;
    bool const in_leader_phase = r == leaders[static_cast<std::size_t>(grp.node)];
    if (in_leader_phase) {
        if (int const err = bcast_over(
                comm, ctx.channel, leaders, grp.node, root_node, ctx.recvbuf, ctx.recvcount,
                *ctx.recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }

    // Intra-node phase, rooted at whichever rank holds the data now.
    std::vector<int> const members = node_ranks(grp);
    int const intra_root = leaders[static_cast<std::size_t>(grp.node)];
    int const my_idx = r - grp.node_begin;
    int const root_idx = intra_root - grp.node_begin;
    if (static_cast<int>(members.size()) > 1) {
        return bcast_over(
            comm, ctx.channel, members, my_idx, root_idx, ctx.recvbuf, ctx.recvcount,
            *ctx.recvtype);
    }
    return XMPI_SUCCESS;
}

/// @brief Two-level allreduce: binomial reduce to the node leader,
/// recursive doubling across leaders, binomial bcast back down. Total
/// messages ~ p + nnodes*log2(nnodes), about half the flat recursive
/// doubling's p*log2(p) for small payloads.
int run_allreduce_hier(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const g = tuning::node_size_for(p);
    Grouping const grp = Grouping::of(r, p, g);
    std::size_t const count = ctx.sendcount;
    Datatype const& type = *ctx.sendtype;
    Op const& op = *ctx.op;
    std::size_t const bytes = count * static_cast<std::size_t>(type.extent());

    // Fold in place in recvbuf on every rank (count-0 calls may pass null).
    if (ctx.sendbuf != ctx.recvbuf && bytes != 0) {
        std::memcpy(ctx.recvbuf, ctx.sendbuf, bytes);
    }
    ReduceScratch local;
    ReduceScratch& scratch = ctx.scratch != nullptr ? *ctx.scratch : local;

    std::vector<int> const members = node_ranks(grp);
    int const my_idx = r - grp.node_begin;
    if (static_cast<int>(members.size()) > 1) {
        if (int const err = reduce_over(
                comm, ctx.channel, members, my_idx, 0, ctx.recvbuf, count, type, op,
                scratch.incoming);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    if (grp.is_leader(r)) {
        std::vector<int> const leaders = leader_ranks(grp);
        if (int const err = rd_allreduce_over(
                comm, ctx.channel, leaders, grp.node, ctx.recvbuf, count, type, op,
                scratch.incoming);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    if (static_cast<int>(members.size()) > 1) {
        return bcast_over(comm, ctx.channel, members, my_idx, 0, ctx.recvbuf, count, type);
    }
    return XMPI_SUCCESS;
}

/// @brief Two-level allgather: members send their block to the leader
/// (blocks of one node are contiguous rows of the receive buffer), leaders
/// run a ring exchanging node super-blocks, then each leader broadcasts the
/// assembled buffer within its node.
int run_allgather_hier(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const g = tuning::node_size_for(p);
    Grouping const grp = Grouping::of(r, p, g);
    void* const recvbuf = ctx.recvbuf;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& recvtype = *ctx.recvtype;

    // Phase 1: gather the node's blocks at the leader. run_collective
    // already placed each rank's own block in its row.
    if (!grp.is_leader(r)) {
        if (int const err = channel_send(
                comm, ctx.channel, grp.leader(),
                displaced(recvbuf, r * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                recvcount, recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    } else {
        for (int i = grp.node_begin + 1; i < grp.node_end; ++i) {
            if (int const err = channel_recv(
                    comm, ctx.channel, i,
                    displaced(recvbuf, i * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                    recvcount, recvtype);
                err != XMPI_SUCCESS) {
                return err;
            }
        }
        // Phase 2: ring over the leaders, shipping whole node super-blocks
        // (the last node's may be smaller).
        auto const node_rows = [&](int nb) {
            int const begin = nb * g;
            int const end = begin + g < p ? begin + g : p;
            return end - begin;
        };
        int const nnodes = grp.nnodes;
        if (nnodes > 1) {
            int const next = ((grp.node + 1) % nnodes) * g;
            int const prev = ((grp.node - 1 + nnodes) % nnodes) * g;
            for (int s = 0; s < nnodes - 1; ++s) {
                int const send_node = (grp.node - s + nnodes) % nnodes;
                int const recv_node = (grp.node - s - 1 + nnodes) % nnodes;
                if (int const err = channel_sendrecv(
                        comm, ctx.channel, next,
                        displaced(
                            recvbuf, send_node * g * static_cast<std::ptrdiff_t>(recvcount),
                            recvtype),
                        static_cast<std::size_t>(node_rows(send_node)) * recvcount, recvtype,
                        prev,
                        displaced(
                            recvbuf, recv_node * g * static_cast<std::ptrdiff_t>(recvcount),
                            recvtype),
                        static_cast<std::size_t>(node_rows(recv_node)) * recvcount, recvtype);
                    err != XMPI_SUCCESS) {
                    return err;
                }
            }
        }
    }

    // Phase 3: broadcast the assembled buffer within the node.
    std::vector<int> const members = node_ranks(grp);
    if (static_cast<int>(members.size()) > 1) {
        return bcast_over(
            comm, ctx.channel, members, r - grp.node_begin, 0, recvbuf,
            static_cast<std::size_t>(p) * recvcount, recvtype);
    }
    return XMPI_SUCCESS;
}

[[nodiscard]] bool hier_grouping_active(tuning::SelectCtx const& sctx) {
    return tuning::node_size_for(sctx.p) > 0;
}

[[nodiscard]] bool hier_allreduce_applicable(tuning::SelectCtx const& sctx) {
    return sctx.commutative && hier_grouping_active(sctx);
}

[[nodiscard]] bool hier_allreduce_preferred(tuning::SelectCtx const& sctx) {
    return sctx.block_bytes <= tuning::hier_allreduce_max_bytes;
}

[[nodiscard]] bool hier_allgather_preferred(tuning::SelectCtx const& sctx) {
    return sctx.block_bytes <= tuning::hier_allgather_max_bytes;
}

} // namespace

void register_hier_algos(std::vector<CollAlgo>& registry) {
    // No cost() hooks: a uniform alpha/beta model sees only the extra tree
    // depth, never the intra/inter asymmetry the hierarchy exploits, so
    // these entries win via preference (below) or a measured table.
    registry.push_back(
        {tuning::CollOp::bcast, "hier_binomial", hier_grouping_active, nullptr, nullptr,
         run_bcast_hier});
    registry.push_back(
        {tuning::CollOp::allreduce, "hier_recursive_doubling", hier_allreduce_applicable,
         hier_allreduce_preferred, nullptr, run_allreduce_hier});
    registry.push_back(
        {tuning::CollOp::allgather, "hier_ring", hier_grouping_active, hier_allgather_preferred,
         nullptr, run_allgather_hier});
}

} // namespace xmpi::detail
