#include <algorithm>
#include <cstring>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"

namespace xmpi::detail {
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
    copy_bytes(ctx.recvbuf, accumulator.data(), count * static_cast<std::size_t>(type.extent()));
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
    copy_bytes(ctx.recvbuf, accumulator.data(), count * static_cast<std::size_t>(type.extent()));
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
        if (!in_place) {
            copy_bytes(recvbuf, acc, bytes);
        }
        return channel_send(comm, channel, r - 1, recvbuf, count, type);
    }
    if (!in_place) {
        copy_bytes(recvbuf, acc, bytes);
    }
    return XMPI_SUCCESS;
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
            copy_bytes(recvbuf, exclusive_prefix.data(), bytes);
        }
    } else {
        copy_bytes(recvbuf, inclusive.data(), bytes);
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

} // namespace

void register_reduce_algos(std::vector<CollAlgo>& registry) {
    registry.push_back(
        {tuning::CollOp::reduce, "binomial_tree", commutative_only, nullptr, cost_reduce_binomial,
         run_reduce_binomial});
    registry.push_back(
        {tuning::CollOp::reduce, "linear", nullptr, nullptr, cost_reduce_linear,
         run_reduce_linear});
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
        {tuning::CollOp::reduce_scatter, "reduce_then_scatter", nullptr, nullptr, nullptr,
         run_reduce_scatter_reduce_then_scatter});
}

} // namespace xmpi::detail
