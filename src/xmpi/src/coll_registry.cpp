/// @file coll_registry.cpp
/// @brief Registry storage, the one collective entry (run_collective) with
/// its per-op rules, the selection dispatcher, and shared helpers.
#include "coll_registry.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "xmpi/comm.hpp"
#include "xmpi/netmodel.hpp"
#include "xmpi/profile.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

std::vector<CollAlgo> const& coll_registry() {
    // Function-local static: the registrations run exactly once, on the
    // first collective of the process, with no static-initialization-order
    // hazard. Hierarchical entries register FIRST so they lead the
    // preference walk of the ops they specialize.
    static std::vector<CollAlgo> const registry = [] {
        std::vector<CollAlgo> entries;
        register_hier_algos(entries);
        register_basic_algos(entries);
        register_reduce_algos(entries);
        register_gather_algos(entries);
        register_alltoall_algos(entries);
        return entries;
    }();
    return registry;
}

namespace {

[[nodiscard]] bool
entry_applicable(CollAlgo const& entry, tuning::CollOp op, tuning::SelectCtx const& sctx) {
    return entry.op == op && (entry.applicable == nullptr || entry.applicable(sctx));
}

/// @brief Runs select() and resolves the winner to its registry entry.
/// @param selection out-param for the Selection record; may be nullptr.
CollAlgo const* select_coll_algo(
    tuning::CollOp op, tuning::SelectCtx const& sctx, tuning::Selection* selection) {
    auto const& registry = coll_registry();
    auto const found = [&](CollAlgo const& entry, bool from_table, bool forced) {
        if (selection != nullptr) {
            *selection = tuning::Selection{entry.name, from_table, forced};
        }
        return &entry;
    };

    // Layer 1: an explicit force (benches measuring one candidate at a
    // time). Silently falls through when the forced name is inapplicable —
    // correctness constraints outrank the force.
    if (char const* const force = tuning::coll().force_algorithm; force != nullptr) {
        for (auto const& entry: registry) {
            if (entry_applicable(entry, op, sctx) && std::strcmp(entry.name, force) == 0) {
                return found(entry, false, true);
            }
        }
    }

    // Layer 2: a measured tuning-table cell.
    if (tuning::tuning_table_loaded()) {
        if (char const* const cell = tuning::table_algorithm(op, sctx.p, sctx.block_bytes);
            cell != nullptr) {
            for (auto const& entry: registry) {
                if (entry_applicable(entry, op, sctx) && std::strcmp(entry.name, cell) == 0) {
                    return found(entry, true, false);
                }
            }
        }
    }

    // Layer 3: the alpha/beta model — argmin of modeled cost over the
    // applicable entries that have one (first registered wins ties, so the
    // more specialized algorithm is kept on equal-cost cells).
    if (sctx.model_enabled) {
        CollAlgo const* best = nullptr;
        double best_cost = 0.0;
        for (auto const& entry: registry) {
            if (entry.cost == nullptr || !entry_applicable(entry, op, sctx)) {
                continue;
            }
            double const entry_cost = entry.cost(sctx);
            if (best == nullptr || entry_cost < best_cost) {
                best = &entry;
                best_cost = entry_cost;
            }
        }
        if (best != nullptr) {
            return found(*best, false, false);
        }
    }

    // Layer 4: static preference thresholds, in registration order.
    for (auto const& entry: registry) {
        if (entry_applicable(entry, op, sctx)
            && (entry.preferred == nullptr || entry.preferred(sctx))) {
            return found(entry, false, false);
        }
    }
    // No entry preferred itself: the first applicable one (every op
    // registers an always-applicable fallback, so only an unknown op can
    // still fall through).
    for (auto const& entry: registry) {
        if (entry_applicable(entry, op, sctx)) {
            return found(entry, false, false);
        }
    }
    return nullptr;
}

tuning::SelectCtx
make_select_ctx(Comm& comm, std::size_t block_bytes, bool commutative = true) {
    NetworkModel const& model = comm.world().network_model();
    tuning::SelectCtx sctx;
    sctx.p = comm.size();
    sctx.block_bytes = block_bytes;
    sctx.commutative = commutative;
    sctx.model_enabled = model.enabled();
    sctx.alpha = model.alpha;
    sctx.beta = model.beta;
    return sctx;
}

/// @brief Resolves IN_PLACE the way @c op defines it (idempotent: a
/// composite algorithm may hand an already resolved ctx to an inner op) and
/// returns the selection inputs. Sizes: the packed block a rank
/// contributes — the root's send side versus everyone else's receive side
/// in scatter, the caller's own block for the v/w variants, and 0 for the
/// size-free barrier and neighbor exchange.
tuning::SelectCtx resolve(tuning::CollOp op, CollCtx& ctx) {
    using tuning::CollOp;
    Comm& comm = *ctx.comm;
    int const r = comm.rank();
    bool const send_in_place = ctx.sendbuf == IN_PLACE;
    switch (op) {
    case CollOp::barrier:
    case CollOp::neighbor_alltoallv:
        return make_select_ctx(comm, 0);
    case CollOp::bcast:
        return make_select_ctx(comm, ctx.recvtype->packed_size(ctx.recvcount));
    case CollOp::gather:
    case CollOp::gatherv:
        if (send_in_place) {
            ctx.in_place = true;
            ctx.sendtype = ctx.recvtype;
        }
        return make_select_ctx(comm, ctx.sendtype->packed_size(ctx.sendcount));
    case CollOp::scatter:
    case CollOp::scatterv: {
        if (ctx.recvbuf == IN_PLACE) {
            ctx.in_place = true;
            ctx.recvbuf = nullptr;
            ctx.recvtype = ctx.sendtype;
        }
        // The block size is only known root-side for scatter (the send
        // side is significant only there), but MPI requires matching
        // signatures, so every other rank derives it from its receive side.
        bool const root_send_side = op == CollOp::scatter && r == ctx.root;
        return make_select_ctx(
            comm, root_send_side ? ctx.sendtype->packed_size(ctx.sendcount)
                                 : ctx.recvtype->packed_size(ctx.recvcount));
    }
    case CollOp::allgather:
    case CollOp::allgatherv:
        if (send_in_place) {
            ctx.in_place = true;
        }
        return make_select_ctx(
            comm, ctx.recvtype->packed_size(
                      op == CollOp::allgather ? ctx.recvcount
                                              : static_cast<std::size_t>(ctx.recvcounts[r])));
    case CollOp::alltoall:
        // Send data comes from the receive buffer with the receive shape
        // (whether an algorithm must stage a copy is its own business).
        if (send_in_place) {
            ctx.in_place = true;
            ctx.sendbuf = ctx.recvbuf;
            ctx.sendcount = ctx.recvcount;
            ctx.sendtype = ctx.recvtype;
        }
        return make_select_ctx(comm, ctx.sendtype->packed_size(ctx.sendcount));
    case CollOp::alltoallv:
        if (send_in_place) {
            ctx.in_place = true;
            ctx.sendtype = ctx.recvtype;
        }
        return make_select_ctx(
            comm, ctx.recvtype->packed_size(static_cast<std::size_t>(ctx.recvcounts[r])));
    case CollOp::alltoallw:
        return make_select_ctx(
            comm, ctx.recvtypes[r]->packed_size(static_cast<std::size_t>(ctx.recvcounts[r])));
    case CollOp::reduce:
    case CollOp::allreduce:
    case CollOp::scan:
        if (send_in_place) {
            ctx.in_place = true;
            ctx.sendbuf = ctx.recvbuf;
        }
        return make_select_ctx(
            comm, ctx.sendtype->packed_size(ctx.sendcount), ctx.op->commutative());
    case CollOp::reduce_scatter:
        // In place, a rank's p input blocks come from recvbuf; its result
        // block then overwrites the first of them.
        if (send_in_place) {
            ctx.in_place = true;
            ctx.sendbuf = ctx.recvbuf;
        }
        return make_select_ctx(
            comm, ctx.sendtype->packed_size(ctx.recvcount), ctx.op->commutative());
    case CollOp::count_:
        break;
    }
    return make_select_ctx(comm, 0);
}

} // namespace

int run_coll_algo(CollAlgo const& algo, CollCtx& ctx) {
    int const err = algo.run(ctx);
    // Note AFTER the run: nested dispatches (composite algorithms) noted
    // their inner names during run(), and the outermost name must be the one
    // the binding layer takes.
    profile::note_algorithm(algo.name);
    return err;
}

CollAlgo const* bind_collective(tuning::CollOp op, CollCtx& ctx) {
    return select_coll_algo(op, resolve(op, ctx), nullptr);
}

int run_collective(tuning::CollOp op, CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    if (int const err = check_peer(comm, ANY_SOURCE); err != XMPI_SUCCESS) {
        return err;
    }
    if (op == tuning::CollOp::neighbor_alltoallv && !comm.has_topology()) {
        return XMPI_ERR_TOPOLOGY;
    }
    CollAlgo const* const algo = bind_collective(op, ctx);
    if (algo == nullptr) {
        return XMPI_ERR_ARG; // no registered algorithm for this op
    }
    // Common setup for every allgather algorithm: the caller's own block
    // lands in its receive-buffer row before any exchange starts.
    if ((op == tuning::CollOp::allgather || op == tuning::CollOp::allgatherv) && !ctx.in_place) {
        int const r = comm.rank();
        bool const v = op == tuning::CollOp::allgatherv;
        local_copy(
            ctx.sendbuf, ctx.sendcount, *ctx.sendtype,
            displaced(
                ctx.recvbuf, v ? ctx.rdispls[r] : r * static_cast<std::ptrdiff_t>(ctx.recvcount),
                *ctx.recvtype),
            v ? static_cast<std::size_t>(ctx.recvcounts[r]) : ctx.recvcount, *ctx.recvtype);
    }
    return run_coll_algo(*algo, ctx);
}

int run_blocking(tuning::CollOp op, CollCtx ctx) {
    ctx.channel = blocking_channel(*ctx.comm, op);
    return run_collective(op, ctx);
}

CollChannel blocking_channel(Comm const& comm, tuning::CollOp op) {
    // The blocking-channel table: the only place a registry op meets its
    // coll_tag, indexed by tuning::CollOp.
    static constexpr std::array<int, tuning::num_coll_ops> kBlockingTags = {
        coll_tag::barrier,   coll_tag::bcast,     coll_tag::gather,
        coll_tag::gather,    coll_tag::scatter,   coll_tag::scatter,
        coll_tag::allgather, coll_tag::allgather, coll_tag::alltoall,
        coll_tag::alltoall,  coll_tag::alltoall,  coll_tag::neighbor,
        coll_tag::reduce,    coll_tag::reduce,    coll_tag::reduce_scatter,
        coll_tag::scan,
    };
    return CollChannel{comm.collective_context(), kBlockingTags[static_cast<std::size_t>(op)]};
}

CollChannel inner_channel(CollCtx const& ctx, tuning::CollOp op) {
    return ctx.channel.context == ctx.comm->collective_context()
               ? blocking_channel(*ctx.comm, op)
               : ctx.channel;
}

void local_copy(
    void const* src, std::size_t scount, Datatype const& stype, void* dst, std::size_t rcount,
    Datatype const& rtype) {
    std::vector<std::byte> packed(stype.packed_size(scount));
    stype.pack(src, scount, packed.data());
    std::size_t const elements =
        rtype.size() == 0 ? 0 : std::min(packed.size(), rtype.packed_size(rcount)) / rtype.size();
    rtype.unpack(packed.data(), elements, dst);
}

std::byte* displaced(void* base, std::ptrdiff_t elements, Datatype const& type) {
    return static_cast<std::byte*>(base) + elements * type.extent();
}

std::byte const* displaced(void const* base, std::ptrdiff_t elements, Datatype const& type) {
    return static_cast<std::byte const*>(base) + elements * type.extent();
}

} // namespace xmpi::detail

namespace xmpi::tuning {

Selection select(CollOp op, SelectCtx const& ctx) {
    Selection selection;
    (void)detail::select_coll_algo(op, ctx, &selection);
    return selection;
}

std::vector<char const*> candidates(CollOp op, SelectCtx const& ctx) {
    std::vector<char const*> names;
    for (auto const& entry: detail::coll_registry()) {
        if (entry.op == op && (entry.applicable == nullptr || entry.applicable(ctx))) {
            names.push_back(entry.name);
        }
    }
    return names;
}

} // namespace xmpi::tuning
