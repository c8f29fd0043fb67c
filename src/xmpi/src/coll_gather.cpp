#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"
#include "xmpi/netmodel.hpp"

namespace xmpi::detail {
namespace {

/// @brief Root-side linear gather: p-1 direct receives into the displaced
/// receive blocks.
int run_gather_linear(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const root = ctx.root;
    if (r != root) {
        return channel_send(comm, ctx.channel, root, ctx.sendbuf, ctx.sendcount, *ctx.sendtype);
    }
    if (!ctx.in_place) {
        local_copy(
            ctx.sendbuf, ctx.sendcount, *ctx.sendtype,
            displaced(ctx.recvbuf, r * static_cast<std::ptrdiff_t>(ctx.recvcount), *ctx.recvtype),
            ctx.recvcount, *ctx.recvtype);
    }
    for (int i = 0; i < p; ++i) {
        if (i == root) {
            continue;
        }
        if (int const err = channel_recv(
                comm, ctx.channel, i,
                displaced(ctx.recvbuf, i * static_cast<std::ptrdiff_t>(ctx.recvcount), *ctx.recvtype),
                ctx.recvcount, *ctx.recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

int run_gatherv_linear(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const root = ctx.root;
    if (r != root) {
        return channel_send(comm, ctx.channel, root, ctx.sendbuf, ctx.sendcount, *ctx.sendtype);
    }
    if (!ctx.in_place) {
        local_copy(
            ctx.sendbuf, ctx.sendcount, *ctx.sendtype,
            displaced(ctx.recvbuf, ctx.rdispls[r], *ctx.recvtype),
            static_cast<std::size_t>(ctx.recvcounts[r]), *ctx.recvtype);
    }
    for (int i = 0; i < p; ++i) {
        if (i == root) {
            continue;
        }
        if (int const err = channel_recv(
                comm, ctx.channel, i, displaced(ctx.recvbuf, ctx.rdispls[i], *ctx.recvtype),
                static_cast<std::size_t>(ctx.recvcounts[i]), *ctx.recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Binomial-tree scatter: the root packs all blocks in virtual-rank
/// order and halves the remaining range towards each child, so the root
/// injects log2(p) messages instead of p-1. Leaves receive their single
/// block straight into the user buffer (eligible for the zero-copy path);
/// inner nodes stage their subtree's blocks and forward halves downward.
int run_scatter_binomial(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void const* const sendbuf = ctx.sendbuf;
    std::size_t const sendcount = ctx.sendcount;
    Datatype const& sendtype = *ctx.sendtype;
    void* const recvbuf = ctx.in_place ? IN_PLACE : ctx.recvbuf;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& recvtype = *ctx.recvtype;
    int const root = ctx.root;
    int const p = comm.size();
    int const r = comm.rank();
    int const vrank = (r - root + p) % p;
    auto const real = [&](int vr) { return (vr + root) % p; };
    std::size_t const block_bytes = sendtype.packed_size(sendcount);
    Datatype const& byte_type = *predefined_type(BuiltinType::byte_);

    // Subtree of vrank v spans virtual ranks [v, v + lsb(v)) clipped to p
    // (the whole range for the root).
    int const subtree =
        vrank == 0 ? p : std::min(vrank & -vrank, p - vrank);

    std::vector<std::byte> slots;
    if (vrank == 0) {
        slots.resize(static_cast<std::size_t>(p) * block_bytes);
        for (int j = 0; j < p; ++j) {
            sendtype.pack(
                displaced(sendbuf, real(j) * static_cast<std::ptrdiff_t>(sendcount), sendtype),
                sendcount, slots.data() + static_cast<std::size_t>(j) * block_bytes);
        }
        if (recvbuf != IN_PLACE) {
            local_copy(
                displaced(sendbuf, r * static_cast<std::ptrdiff_t>(sendcount), sendtype),
                sendcount, sendtype, recvbuf, recvcount, recvtype);
        }
    } else {
        int const parent = real(vrank - (vrank & -vrank));
        if (subtree == 1) {
            // Leaf: a single block arrives as packed bytes and is unpacked
            // with the receive type directly into the user buffer.
            return channel_recv(comm, ctx.channel, parent, recvbuf, recvcount, recvtype);
        }
        slots.resize(static_cast<std::size_t>(subtree) * block_bytes);
        if (int const err =
                channel_recv(comm, ctx.channel, parent, slots.data(), slots.size(), byte_type);
            err != XMPI_SUCCESS) {
            return err;
        }
        std::size_t const elements =
            recvtype.size() == 0
                ? 0
                : std::min(block_bytes, recvtype.packed_size(recvcount)) / recvtype.size();
        recvtype.unpack(slots.data(), elements, recvbuf);
    }

    // Forward the upper half of the remaining range to each child, largest
    // subtree first.
    for (int mask = static_cast<int>(std::bit_floor(static_cast<unsigned>(subtree - 1)));
         mask >= 1; mask >>= 1) {
        int const child = vrank + mask;
        if (child >= p || mask >= subtree) {
            continue;
        }
        int const child_blocks = std::min(mask, p - child);
        if (int const err = channel_send(
                comm, ctx.channel, real(child),
                slots.data() + static_cast<std::size_t>(mask) * block_bytes,
                static_cast<std::size_t>(child_blocks) * block_bytes, byte_type);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Root-side linear scatter: p-1 direct sends of the displaced
/// blocks.
int run_scatter_linear(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const root = ctx.root;
    if (r != root) {
        return channel_recv(comm, ctx.channel, root, ctx.recvbuf, ctx.recvcount, *ctx.recvtype);
    }
    for (int i = 0; i < p; ++i) {
        if (i == root) {
            continue;
        }
        if (int const err = channel_send(
                comm, ctx.channel, i,
                displaced(ctx.sendbuf, i * static_cast<std::ptrdiff_t>(ctx.sendcount), *ctx.sendtype),
                ctx.sendcount, *ctx.sendtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    if (!ctx.in_place) {
        local_copy(
            displaced(ctx.sendbuf, r * static_cast<std::ptrdiff_t>(ctx.sendcount), *ctx.sendtype),
            ctx.sendcount, *ctx.sendtype, ctx.recvbuf, ctx.recvcount, *ctx.recvtype);
    }
    return XMPI_SUCCESS;
}

int run_scatterv_linear(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    int const root = ctx.root;
    if (r != root) {
        return channel_recv(comm, ctx.channel, root, ctx.recvbuf, ctx.recvcount, *ctx.recvtype);
    }
    for (int i = 0; i < p; ++i) {
        if (i == root) {
            continue;
        }
        if (int const err = channel_send(
                comm, ctx.channel, i, displaced(ctx.sendbuf, ctx.sdispls[i], *ctx.sendtype),
                static_cast<std::size_t>(ctx.sendcounts[i]), *ctx.sendtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    if (!ctx.in_place) {
        local_copy(
            displaced(ctx.sendbuf, ctx.sdispls[r], *ctx.sendtype),
            static_cast<std::size_t>(ctx.sendcounts[r]), *ctx.sendtype, ctx.recvbuf,
            ctx.recvcount, *ctx.recvtype);
    }
    return XMPI_SUCCESS;
}

/// @brief Recursive-doubling allgather (power-of-two rank counts only):
/// log2(p) rounds in which each rank exchanges its entire currently known
/// contiguous run of blocks with its round partner. run_collective already
/// placed each rank's own block into its receive-buffer row.
int run_allgather_recursive_doubling(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void* const recvbuf = ctx.recvbuf;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& recvtype = *ctx.recvtype;
    int const p = comm.size();
    int const r = comm.rank();
    for (int mask = 1; mask < p; mask <<= 1) {
        int const partner = r ^ mask;
        // Before this round a rank holds blocks [floor(r/mask)*mask, +mask).
        int const send_base = (r / mask) * mask;
        int const recv_base = (partner / mask) * mask;
        std::size_t const run = static_cast<std::size_t>(mask) * recvcount;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, partner,
                displaced(recvbuf, send_base * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                run, recvtype, partner,
                displaced(recvbuf, recv_base * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                run, recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Ring allgather: p-1 rounds, each rank forwards the block it
/// received in the previous round; cost is the classic (p-1)(alpha + n*beta).
int run_allgather_ring(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void* const recvbuf = ctx.recvbuf;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& recvtype = *ctx.recvtype;
    int const p = comm.size();
    int const r = comm.rank();
    int const next = (r + 1) % p;
    int const prev = (r - 1 + p) % p;
    for (int s = 0; s < p - 1; ++s) {
        int const send_block = (r - s + p) % p;
        int const recv_block = (r - s - 1 + p) % p;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, next,
                displaced(recvbuf, send_block * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                recvcount, recvtype, prev,
                displaced(recvbuf, recv_block * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                recvcount, recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

int run_allgatherv_ring(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void* const recvbuf = ctx.recvbuf;
    Datatype const& recvtype = *ctx.recvtype;
    int const p = comm.size();
    int const r = comm.rank();
    int const next = (r + 1) % p;
    int const prev = (r - 1 + p) % p;
    for (int s = 0; s < p - 1; ++s) {
        int const send_block = (r - s + p) % p;
        int const recv_block = (r - s - 1 + p) % p;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, next, displaced(recvbuf, ctx.rdispls[send_block], recvtype),
                static_cast<std::size_t>(ctx.recvcounts[send_block]), recvtype, prev,
                displaced(recvbuf, ctx.rdispls[recv_block], recvtype),
                static_cast<std::size_t>(ctx.recvcounts[recv_block]), recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

[[nodiscard]] int log2_rounds(int p) {
    int rounds = 0;
    for (int k = 1; k < p; k <<= 1) {
        ++rounds;
    }
    return rounds;
}

[[nodiscard]] double msg_cost(tuning::SelectCtx const& sctx, std::size_t bytes) {
    return sctx.alpha + static_cast<double>(bytes) * sctx.beta;
}

// Binomial scatter: log2(p) rounds on the critical path vs. p-1 serial
// injections at the root; total bytes on the critical path are (p-1)*n
// either way, so the model compares round counts. The tree degenerates to
// the linear pattern below 4 ranks, hence the applicability floor.
[[nodiscard]] bool scatter_binomial_applicable(tuning::SelectCtx const& sctx) {
    return sctx.p >= 4;
}

[[nodiscard]] bool scatter_binomial_preferred(tuning::SelectCtx const& sctx) {
    return sctx.block_bytes <= tuning::binomial_scatter_max_bytes;
}

[[nodiscard]] double cost_scatter_binomial(tuning::SelectCtx const& sctx) {
    return log2_rounds(sctx.p) * sctx.alpha
           + static_cast<double>(sctx.p - 1) * static_cast<double>(sctx.block_bytes) * sctx.beta;
}

[[nodiscard]] double cost_scatter_linear(tuning::SelectCtx const& sctx) {
    return static_cast<double>(sctx.p - 1) * msg_cost(sctx, sctx.block_bytes);
}

// Recursive-doubling allgather moves the same total bytes as the ring but
// in log2(p) rounds instead of p-1; it requires a power-of-two rank count.
[[nodiscard]] bool allgather_rd_applicable(tuning::SelectCtx const& sctx) {
    return sctx.p >= 4 && std::has_single_bit(static_cast<unsigned>(sctx.p));
}

[[nodiscard]] bool allgather_rd_preferred(tuning::SelectCtx const& sctx) {
    return sctx.block_bytes <= tuning::rd_allgather_max_bytes;
}

[[nodiscard]] double cost_allgather_rd(tuning::SelectCtx const& sctx) {
    return log2_rounds(sctx.p) * sctx.alpha
           + static_cast<double>(sctx.p - 1) * static_cast<double>(sctx.block_bytes) * sctx.beta;
}

[[nodiscard]] double cost_allgather_ring(tuning::SelectCtx const& sctx) {
    return static_cast<double>(sctx.p - 1) * msg_cost(sctx, sctx.block_bytes);
}

} // namespace

void register_gather_algos(std::vector<CollAlgo>& registry) {
    registry.push_back(
        {tuning::CollOp::gather, "linear", nullptr, nullptr, nullptr, run_gather_linear});
    registry.push_back(
        {tuning::CollOp::gatherv, "linear", nullptr, nullptr, nullptr, run_gatherv_linear});
    registry.push_back(
        {tuning::CollOp::scatter, "binomial_tree", scatter_binomial_applicable,
         scatter_binomial_preferred, cost_scatter_binomial, run_scatter_binomial});
    registry.push_back(
        {tuning::CollOp::scatter, "linear", nullptr, nullptr, cost_scatter_linear,
         run_scatter_linear});
    registry.push_back(
        {tuning::CollOp::scatterv, "linear", nullptr, nullptr, nullptr, run_scatterv_linear});
    registry.push_back(
        {tuning::CollOp::allgather, "recursive_doubling", allgather_rd_applicable,
         allgather_rd_preferred, cost_allgather_rd, run_allgather_recursive_doubling});
    registry.push_back(
        {tuning::CollOp::allgather, "ring", nullptr, nullptr, cost_allgather_ring,
         run_allgather_ring});
    registry.push_back(
        {tuning::CollOp::allgatherv, "ring", nullptr, nullptr, nullptr, run_allgatherv_ring});
}

} // namespace xmpi::detail
