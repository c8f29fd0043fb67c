#include <algorithm>
#include <cstring>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"
#include "xmpi/netmodel.hpp"

namespace xmpi::detail {

void copy_elements(
    void* dst, void const* src, std::size_t count, Datatype const& type,
    std::vector<std::byte>& staging) {
    if (dst == src || count == 0) {
        return;
    }
    if (type.is_contiguous()) {
        std::memmove(dst, src, count * type.size());
        return;
    }
    staging.resize(type.packed_size(count));
    type.pack(src, count, staging.data());
    type.unpack(staging.data(), count, dst);
}

namespace {

/// @brief memcpy that skips empty copies: count-0 reductions may pass null
/// buffers, and memcpy's pointers must not be null even for zero bytes.
void copy_bytes(void* dst, void const* src, std::size_t bytes) {
    if (bytes != 0) {
        std::memcpy(dst, src, bytes);
    }
}

/// @brief Scratch buffer holding `count` elements in user layout (extent-
/// strided), so reduction operations can be applied directly.
struct ElementBuffer {
    ElementBuffer(std::size_t count, Datatype const& type)
        : storage(count * static_cast<std::size_t>(type.extent())) {}

    [[nodiscard]] void* data() { return storage.data(); }
    [[nodiscard]] void const* data() const { return storage.data(); }

    std::vector<std::byte> storage;
};

/// @brief Linear (rank-ordered) reduce used for non-commutative operations:
/// the root folds contributions strictly in rank order.
int run_reduce_linear(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    CollChannel const channel = ctx.channel;
    void const* const contribution = ctx.sendbuf;
    std::size_t const count = ctx.sendcount;
    Datatype const& type = *ctx.sendtype;
    Op const& op = *ctx.op;
    int const root = ctx.root;
    int const p = comm.size();
    int const r = comm.rank();
    if (r != root) {
        return channel_send(comm, channel, root, contribution, count, type);
    }
    ElementBuffer accumulator(count, type);
    ElementBuffer incoming(count, type);
    // acc = buf_0; then acc = acc (op) buf_i for i = 1..p-1. Op::apply
    // computes inout = in (op) inout, so fold with in = acc into incoming and
    // swap.
    auto const load = [&](int source, void* dst) -> int {
        if (source == root) {
            copy_bytes(dst, contribution, count * static_cast<std::size_t>(type.extent()));
            return XMPI_SUCCESS;
        }
        return channel_recv(comm, channel, source, dst, count, type);
    };
    if (int const err = load(0, accumulator.data()); err != XMPI_SUCCESS) {
        return err;
    }
    for (int i = 1; i < p; ++i) {
        if (int const err = load(i, incoming.data()); err != XMPI_SUCCESS) {
            return err;
        }
        op.apply(accumulator.data(), incoming.data(), count, type);
        std::swap(accumulator.storage, incoming.storage);
    }
    copy_elements(ctx.recvbuf, accumulator.data(), count, type, incoming.storage);
    return XMPI_SUCCESS;
}

/// @brief Binomial-tree reduce for commutative operations.
int run_reduce_binomial(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    CollChannel const channel = ctx.channel;
    std::size_t const count = ctx.sendcount;
    Datatype const& type = *ctx.sendtype;
    Op const& op = *ctx.op;
    int const root = ctx.root;
    int const p = comm.size();
    int const r = comm.rank();
    int const vrank = (r - root + p) % p;
    auto const real = [&](int vr) { return (vr + root) % p; };

    ElementBuffer accumulator(count, type);
    ElementBuffer incoming(count, type);
    copy_bytes(
        accumulator.data(), ctx.sendbuf, count * static_cast<std::size_t>(type.extent()));

    int mask = 1;
    while (mask < p) {
        if (vrank & mask) {
            int const parent = vrank - mask;
            if (int const err =
                    channel_send(comm, channel, real(parent), accumulator.data(), count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            return XMPI_SUCCESS; // inner nodes are done after sending up
        }
        int const child = vrank + mask;
        if (child < p) {
            if (int const err =
                    channel_recv(comm, channel, real(child), incoming.data(), count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            // accumulator covers ranks [vrank, vrank+mask), the child covers
            // [child, child+mask): fold acc (op) child into `incoming`, swap.
            op.apply(accumulator.data(), incoming.data(), count, type);
            std::swap(accumulator.storage, incoming.storage);
        }
        mask <<= 1;
    }
    copy_elements(ctx.recvbuf, accumulator.data(), count, type, incoming.storage);
    return XMPI_SUCCESS;
}

/// @brief Recursive-doubling allreduce for commutative operations:
/// ceil(log2 p) exchange rounds instead of the ~2*log2(p) of reduce+bcast.
///
/// Every rank folds the same multiset of contributions with the same tree
/// shape; the two partners of a round fold the same pair in swapped operand
/// order. All builtin commutative ops (and IEEE-754 + and *) are bitwise
/// commutative, so every rank still observes a bit-identical result — the
/// property the applications' floating-point termination checks rely on.
/// Non-commutative user ops keep the rank-ordered reduce+bcast path.
int run_allreduce_recursive_doubling(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    CollChannel const channel = ctx.channel;
    void const* const contribution = ctx.sendbuf;
    void* const recvbuf = ctx.recvbuf;
    std::size_t const count = ctx.sendcount;
    Datatype const& type = *ctx.sendtype;
    Op const& op = *ctx.op;
    ReduceScratch local;
    ReduceScratch& scratch = ctx.scratch != nullptr ? *ctx.scratch : local;
    int const p = comm.size();
    int const r = comm.rank();
    std::size_t const bytes = count * static_cast<std::size_t>(type.extent());

    // resize() is a no-op after the first round on a hoisted scratch, so
    // persistent restarts run allocation-free. In-place calls (contribution
    // aliases recvbuf — the shape every persistent allreduce binds) skip the
    // accumulator entirely and fold straight into recvbuf, saving the entry
    // and exit copies as well.
    bool const in_place = contribution == recvbuf;
    std::byte* acc = nullptr;
    if (in_place) {
        acc = static_cast<std::byte*>(recvbuf);
    } else {
        scratch.accumulator.resize(bytes);
        acc = scratch.accumulator.data();
        copy_bytes(acc, contribution, bytes);
    }
    scratch.incoming.resize(bytes);
    std::byte* const in = scratch.incoming.data();

    // Fold the rem = p - 2^k ranks beyond the largest power of two into
    // their odd neighbours first; those neighbours then run the doubling
    // rounds and hand the final result back afterwards.
    int pow2 = 1;
    while (pow2 * 2 <= p) {
        pow2 *= 2;
    }
    int const rem = p - pow2;

    int vrank;
    if (r < 2 * rem) {
        if (r % 2 == 0) {
            if (int const err = channel_send(comm, channel, r + 1, acc, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            vrank = -1; // sits out the doubling rounds, gets the result back
        } else {
            if (int const err = channel_recv(comm, channel, r - 1, in, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            op.apply(in, acc, count, type);
            vrank = r / 2;
        }
    } else {
        vrank = r - rem;
    }

    if (vrank >= 0) {
        auto const real = [&](int vr) { return vr < rem ? 2 * vr + 1 : vr + rem; };
        for (int mask = 1; mask < pow2; mask <<= 1) {
            int const partner = real(vrank ^ mask);
            if (int const err = channel_sendrecv(
                    comm, channel, partner, acc, count, type, partner, in, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            op.apply(in, acc, count, type);
        }
    }

    if (r < 2 * rem) {
        if (r % 2 == 0) {
            return channel_recv(comm, channel, r + 1, recvbuf, count, type);
        }
        copy_elements(recvbuf, acc, count, type, scratch.incoming);
        return channel_send(comm, channel, r - 1, recvbuf, count, type);
    }
    copy_elements(recvbuf, acc, count, type, scratch.incoming);
    return XMPI_SUCCESS;
}

/// @brief The ring algorithms' split of a @c count-element vector into p
/// near-equal blocks: the first count % p blocks carry one element more, and
/// blocks are empty when count < p.
struct RingBlocks {
    RingBlocks(std::size_t count, int p)
        : base(count / static_cast<std::size_t>(p)),
          extra(count % static_cast<std::size_t>(p)) {}

    [[nodiscard]] std::size_t count(int block) const {
        return base + (static_cast<std::size_t>(block) < extra ? 1 : 0);
    }
    /// @brief Element offset of @c block.
    [[nodiscard]] std::ptrdiff_t first(int block) const {
        auto const b = static_cast<std::size_t>(block);
        return static_cast<std::ptrdiff_t>(b * base + std::min(b, extra));
    }
    [[nodiscard]] std::size_t largest() const { return base + (extra != 0 ? 1 : 0); }

    std::size_t base;
    std::size_t extra;
};

/// @brief One ring step on ctx.channel: block @c send_block of @c vec to
/// r+1, then block @c recv_block from r-1 into @c dst. An empty block is
/// neither sent nor received (both ends know the split).
int ring_step(
    CollCtx const& ctx, RingBlocks const& blocks, std::byte const* vec, int send_block,
    int recv_block, void* dst) {
    Comm& comm = *ctx.comm;
    Datatype const& type = *ctx.sendtype;
    int const p = comm.size();
    int const r = comm.rank();
    if (std::size_t const n = blocks.count(send_block); n != 0) {
        if (int const err = channel_send(
                comm, ctx.channel, (r + 1) % p, vec + blocks.first(send_block) * type.extent(),
                n, type);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    if (std::size_t const n = blocks.count(recv_block); n != 0) {
        return channel_recv(comm, ctx.channel, (r - 1 + p) % p, dst, n, type);
    }
    return XMPI_SUCCESS;
}

/// @brief Ring reduce-scatter phase: @c acc holds this rank's whole
/// contribution (user layout) and is the accumulator. In p-1 steps each rank
/// passes the block it folded last to r+1 and folds the next one from r-1
/// into @c acc, so rank r ends holding block r reduced over every rank
/// exactly once; the other blocks of @c acc are left partially reduced.
/// @c incoming must hold blocks.largest() elements.
int ring_reduce_scatter(
    CollCtx const& ctx, RingBlocks const& blocks, std::byte* acc, std::byte* incoming) {
    Datatype const& type = *ctx.sendtype;
    int const p = ctx.comm->size();
    int const r = ctx.comm->rank();
    for (int step = 0; step + 1 < p; ++step) {
        int const send_block = (r - step - 1 + p) % p;
        int const recv_block = (r - step - 2 + p) % p;
        if (int const err = ring_step(ctx, blocks, acc, send_block, recv_block, incoming);
            err != XMPI_SUCCESS) {
            return err;
        }
        ctx.op->apply(
            incoming, acc + blocks.first(recv_block) * type.extent(), blocks.count(recv_block),
            type);
    }
    return XMPI_SUCCESS;
}

/// @brief Ring allgather phase: rank r holds block r of @c vec; p-1 steps
/// pass every block around the ring, each received straight into place.
int ring_allgather(CollCtx const& ctx, RingBlocks const& blocks, std::byte* vec) {
    std::ptrdiff_t const extent = ctx.sendtype->extent();
    int const p = ctx.comm->size();
    int const r = ctx.comm->rank();
    for (int step = 0; step + 1 < p; ++step) {
        int const send_block = (r - step + p) % p;
        int const recv_block = (r - step - 1 + p) % p;
        if (int const err = ring_step(
                ctx, blocks, vec, send_block, recv_block, vec + blocks.first(recv_block) * extent);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Bandwidth-optimal allreduce for commutative operations (Thakur,
/// Rabenseifner & Gropp): a ring reduce-scatter into recvbuf, then a ring
/// allgather of the reduced blocks. Each rank moves 2(p-1)/p of the buffer
/// in 2(p-1) steps, against recursive doubling's full buffer per round plus
/// the two-buffer fold at a non-power-of-two p.
///
/// Every block is reduced exactly once, by the rank that owns it, and then
/// copied: every rank observes a bit-identical result.
int run_allreduce_ring(CollCtx& ctx) {
    std::size_t const count = ctx.sendcount;
    Datatype const& type = *ctx.sendtype;
    ReduceScratch local;
    ReduceScratch& scratch = ctx.scratch != nullptr ? *ctx.scratch : local;
    std::size_t const extent = static_cast<std::size_t>(type.extent());
    auto* const acc = static_cast<std::byte*>(ctx.recvbuf);
    copy_elements(acc, ctx.sendbuf, count, type, scratch.accumulator);
    RingBlocks const blocks(count, ctx.comm->size());
    // No-op after the first round on a hoisted (persistent) scratch.
    scratch.incoming.resize(blocks.largest() * extent);
    if (int const err = ring_reduce_scatter(ctx, blocks, acc, scratch.incoming.data());
        err != XMPI_SUCCESS) {
        return err;
    }
    return ring_allgather(ctx, blocks, acc);
}

/// @brief Non-commutative allreduce: fold in rank order at rank 0, then
/// broadcast, so every rank observes the bit-identical rank-ordered result.
/// Both phases run on the allreduce's own channel.
int run_allreduce_reduce_bcast(CollCtx& ctx) {
    CollCtx reduce_ctx = ctx;
    reduce_ctx.root = 0;
    if (int const err = run_collective(tuning::CollOp::reduce, reduce_ctx); err != XMPI_SUCCESS) {
        return err;
    }
    CollCtx bcast_ctx{
        .comm = ctx.comm, .channel = ctx.channel, .recvbuf = ctx.recvbuf,
        .recvcount = ctx.sendcount, .recvtype = ctx.sendtype};
    return run_collective(tuning::CollOp::bcast, bcast_ctx);
}

/// @brief Recursive doubling (Hillis–Steele) scan, ceil(log2 p) rounds.
int run_scan_hillis_steele(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    CollChannel const channel = ctx.channel;
    void const* const contribution = ctx.sendbuf;
    void* const recvbuf = ctx.recvbuf;
    std::size_t const count = ctx.sendcount;
    Datatype const& type = *ctx.sendtype;
    Op const& op = *ctx.op;
    int const p = comm.size();
    int const r = comm.rank();
    std::size_t const bytes = count * static_cast<std::size_t>(type.extent());

    // After round k, `inclusive` covers ranks [max(0, r - 2^(k+1) + 1), r]
    // and `exclusive_prefix` the same range without r itself. Receiving the
    // partner's inclusive value prepends an earlier range, so the fold order
    // is rank order — correct for non-commutative operations too.
    ElementBuffer inclusive(count, type);
    ElementBuffer exclusive_prefix(count, type);
    ElementBuffer incoming(count, type);
    copy_bytes(inclusive.data(), contribution, bytes);
    bool have_prefix = false;
    for (int k = 1; k < p; k <<= 1) {
        if (r + k < p) {
            if (int const err =
                    channel_send(comm, channel, r + k, inclusive.data(), count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
        }
        if (r - k >= 0) {
            if (int const err =
                    channel_recv(comm, channel, r - k, incoming.data(), count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            // inclusive = incoming (op) inclusive; same for the prefix.
            op.apply(incoming.data(), inclusive.data(), count, type);
            if (have_prefix) {
                op.apply(incoming.data(), exclusive_prefix.data(), count, type);
            } else {
                copy_bytes(exclusive_prefix.data(), incoming.data(), bytes);
                have_prefix = true;
            }
        }
    }
    if (ctx.exclusive) {
        // Exscan: rank 0's recvbuf is undefined (left untouched).
        if (have_prefix) {
            copy_elements(recvbuf, exclusive_prefix.data(), count, type, incoming.storage);
        }
    } else {
        copy_elements(recvbuf, inclusive.data(), count, type, incoming.storage);
    }
    return XMPI_SUCCESS;
}

/// @brief Reduce the full vector to rank 0, then scatter blocks.
int run_reduce_scatter_reduce_then_scatter(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& type = *ctx.sendtype;
    int const p = comm.size();
    int const r = comm.rank();
    std::size_t const total = recvcount * static_cast<std::size_t>(p);
    ElementBuffer reduced(r == 0 ? total : 0, type);
    CollCtx reduce_ctx{
        .comm = &comm, .channel = inner_channel(ctx, tuning::CollOp::reduce),
        .sendbuf = ctx.sendbuf, .recvbuf = r == 0 ? reduced.data() : nullptr, .sendcount = total,
        .sendtype = &type, .op = ctx.op};
    if (int const err = run_collective(tuning::CollOp::reduce, reduce_ctx); err != XMPI_SUCCESS) {
        return err;
    }
    CollCtx scatter_ctx{
        .comm = &comm, .channel = inner_channel(ctx, tuning::CollOp::scatter),
        .sendbuf = reduced.data(), .recvbuf = ctx.recvbuf, .sendcount = recvcount,
        .recvcount = recvcount, .sendtype = &type, .recvtype = &type};
    return run_collective(tuning::CollOp::scatter, scatter_ctx);
}

/// @brief Ring reduce-scatter for commutative operations: the allreduce
/// ring's first phase over the p * recvcount input, so rank r ends with
/// block r — no root gathers the whole vector.
int run_reduce_scatter_ring(CollCtx& ctx) {
    int const p = ctx.comm->size();
    int const r = ctx.comm->rank();
    std::size_t const recvcount = ctx.recvcount;
    std::size_t const extent = static_cast<std::size_t>(ctx.sendtype->extent());
    std::size_t const bytes = recvcount * static_cast<std::size_t>(p) * extent;
    ReduceScratch local;
    ReduceScratch& scratch = ctx.scratch != nullptr ? *ctx.scratch : local;
    // In place the input sits in recvbuf, which then serves as accumulator.
    bool const in_place = ctx.sendbuf == ctx.recvbuf;
    std::byte* acc = static_cast<std::byte*>(ctx.recvbuf);
    if (!in_place) {
        scratch.accumulator.resize(bytes);
        acc = scratch.accumulator.data();
        copy_bytes(acc, ctx.sendbuf, bytes);
    }
    RingBlocks const blocks(recvcount * static_cast<std::size_t>(p), p);
    scratch.incoming.resize(recvcount * extent);
    if (int const err = ring_reduce_scatter(ctx, blocks, acc, scratch.incoming.data());
        err != XMPI_SUCCESS) {
        return err;
    }
    // Block r becomes the result (in place: over the first input block).
    copy_elements(
        ctx.recvbuf, acc + blocks.first(r) * extent, recvcount, *ctx.sendtype,
        scratch.incoming);
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

[[nodiscard]] bool commutative_only(tuning::SelectCtx const& sctx) {
    return sctx.commutative;
}

[[nodiscard]] double cost_reduce_binomial(tuning::SelectCtx const& sctx) {
    return log2_rounds(sctx.p) * msg_cost(sctx, sctx.block_bytes);
}

[[nodiscard]] double cost_reduce_linear(tuning::SelectCtx const& sctx) {
    // The root's p-1 serial receives dominate.
    return (sctx.p - 1) * msg_cost(sctx, sctx.block_bytes);
}

[[nodiscard]] double cost_allreduce_rd(tuning::SelectCtx const& sctx) {
    return log2_rounds(sctx.p) * msg_cost(sctx, sctx.block_bytes);
}

[[nodiscard]] double cost_allreduce_reduce_bcast(tuning::SelectCtx const& sctx) {
    return 2 * log2_rounds(sctx.p) * msg_cost(sctx, sctx.block_bytes);
}

/// @brief The ring's crossover: from p = 3 on (p = 2 is one exchange either
/// way), a vector of ring_allreduce_min_bytes; beyond p = 4 each of the
/// ring's blocks must stay as large as at p = 4, so the bound grows with p.
[[nodiscard]] bool ring_allreduce_preferred(tuning::SelectCtx const& sctx) {
    std::size_t const per_block = tuning::ring_allreduce_min_bytes / 4;
    return sctx.p >= 3
           && sctx.block_bytes >= per_block * static_cast<std::size_t>(std::max(sctx.p, 4));
}

/// @brief reduce_scatter's block_bytes is one rank's block: the ring pays
/// off at the same whole-vector size as the allreduce ring.
[[nodiscard]] bool ring_reduce_scatter_preferred(tuning::SelectCtx const& sctx) {
    tuning::SelectCtx whole = sctx;
    whole.block_bytes *= static_cast<std::size_t>(sctx.p);
    return ring_allreduce_preferred(whole);
}

[[nodiscard]] double cost_allreduce_ring(tuning::SelectCtx const& sctx) {
    std::size_t const p = static_cast<std::size_t>(sctx.p);
    return 2 * (sctx.p - 1) * msg_cost(sctx, (sctx.block_bytes + p - 1) / p);
}

[[nodiscard]] double cost_reduce_scatter_ring(tuning::SelectCtx const& sctx) {
    // The allreduce ring's first phase only: p-1 steps of one block each.
    return (sctx.p - 1) * msg_cost(sctx, sctx.block_bytes);
}

[[nodiscard]] double cost_reduce_scatter_reduce_then_scatter(tuning::SelectCtx const& sctx) {
    // A binomial reduce of the whole vector, then a scatter tree whose rounds
    // halve the forwarded share: log2(p) more latencies and ~n more bytes.
    std::size_t const whole = sctx.block_bytes * static_cast<std::size_t>(sctx.p);
    return log2_rounds(sctx.p) * (msg_cost(sctx, whole) + sctx.alpha)
           + static_cast<double>(whole) * sctx.beta;
}

} // namespace

void register_reduce_algos(std::vector<CollAlgo>& registry) {
    registry.push_back(
        {tuning::CollOp::reduce, "binomial_tree", commutative_only, nullptr, cost_reduce_binomial,
         run_reduce_binomial});
    registry.push_back(
        {tuning::CollOp::reduce, "linear", nullptr, nullptr, cost_reduce_linear,
         run_reduce_linear});
    registry.push_back(
        {tuning::CollOp::allreduce, "ring", commutative_only, ring_allreduce_preferred,
         cost_allreduce_ring, run_allreduce_ring});
    registry.push_back(
        {tuning::CollOp::allreduce, "recursive_doubling", commutative_only, nullptr,
         cost_allreduce_rd, run_allreduce_recursive_doubling});
    registry.push_back(
        {tuning::CollOp::allreduce, "reduce_bcast", nullptr, nullptr,
         cost_allreduce_reduce_bcast, run_allreduce_reduce_bcast});
    registry.push_back(
        {tuning::CollOp::scan, "hillis_steele", nullptr, nullptr, nullptr,
         run_scan_hillis_steele});
    registry.push_back(
        {tuning::CollOp::reduce_scatter, "ring", commutative_only, ring_reduce_scatter_preferred,
         cost_reduce_scatter_ring, run_reduce_scatter_ring});
    registry.push_back(
        {tuning::CollOp::reduce_scatter, "reduce_then_scatter", nullptr, nullptr,
         cost_reduce_scatter_reduce_then_scatter, run_reduce_scatter_reduce_then_scatter});
}

} // namespace xmpi::detail
