#include <cstring>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "transport.hpp"

namespace xmpi::detail {
namespace {

/// @brief Dissemination barrier: ceil(log2 p) rounds.
int run_barrier_dissemination(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    auto const& byte_type = *predefined_type(BuiltinType::byte_);
    for (int k = 1; k < p; k <<= 1) {
        int const to = (r + k) % p;
        int const from = (r - k + p) % p;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, to, nullptr, 0, byte_type, from, nullptr, 0, byte_type);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Binomial tree bcast: receive from parent, then forward to children.
int run_bcast_binomial(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    int const p = comm.size();
    int const r = comm.rank();
    void* const buffer = ctx.recvbuf;
    std::size_t const count = ctx.recvcount;
    Datatype const& type = *ctx.recvtype;
    auto const vrank = (r - ctx.root + p) % p;
    auto const real = [&](int vr) { return (vr + ctx.root) % p; };

    int mask = 1;
    while (mask < p) {
        if (vrank & mask) {
            int const parent = vrank - mask;
            if (int const err =
                    channel_recv(comm, ctx.channel, real(parent), buffer, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < p) {
            int const child = vrank + mask;
            if (int const err =
                    channel_send(comm, ctx.channel, real(child), buffer, count, type);
                err != XMPI_SUCCESS) {
                return err;
            }
        }
        mask >>= 1;
    }
    return XMPI_SUCCESS;
}

[[nodiscard]] double cost_barrier_dissemination(tuning::SelectCtx const& sctx) {
    int rounds = 0;
    for (int k = 1; k < sctx.p; k <<= 1) {
        ++rounds;
    }
    return rounds * sctx.alpha;
}

[[nodiscard]] double cost_bcast_binomial(tuning::SelectCtx const& sctx) {
    int rounds = 0;
    for (int k = 1; k < sctx.p; k <<= 1) {
        ++rounds;
    }
    // Critical path: one message per tree level.
    return rounds * (sctx.alpha + static_cast<double>(sctx.block_bytes) * sctx.beta);
}

} // namespace

void register_basic_algos(std::vector<CollAlgo>& registry) {
    registry.push_back(
        {tuning::CollOp::barrier, "dissemination", nullptr, nullptr, cost_barrier_dissemination,
         run_barrier_dissemination});
    registry.push_back(
        {tuning::CollOp::bcast, "binomial", nullptr, nullptr, cost_bcast_binomial,
         run_bcast_binomial});
}

Request* coll_ibarrier(Comm& comm) {
    auto& sync = comm.ibarrier_sync();
    int const me = comm.rank();
    std::uint64_t my_round;
    bool completed = false;
    {
        std::lock_guard lock(sync.mutex);
        my_round = sync.next_round_of_rank[static_cast<std::size_t>(me)]++;
        int& arrived = sync.arrivals[my_round];
        ++arrived;
        if (arrived == comm.size()) {
            sync.arrivals.erase(my_round);
            sync.completed_rounds = my_round + 1;
            completed = true;
        }
    }
    if (completed) {
        comm.notify_members();
    }
    // Model the latency of a dissemination barrier: the shared-counter
    // implementation is otherwise free, which would make NBX look too good.
    auto const& model = comm.world().network_model();
    if (model.enabled()) {
        int rounds = 0;
        for (int k = 1; k < comm.size(); k <<= 1) {
            ++rounds;
        }
        for (int i = 0; i < rounds; ++i) {
            comm.world().network_model().charge(0);
        }
    }
    return new IbarrierRequest(&comm, my_round, comm.world().waiter(comm.world_rank_of(me)));
}

} // namespace xmpi::detail
