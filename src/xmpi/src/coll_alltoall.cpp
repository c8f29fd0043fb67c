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

/// @brief Bruck's log-round alltoall (store-and-forward, works for any p).
///
/// Phase 1 packs send block (r+i) % p into local slot i; round k in
/// {1, 2, 4, ...} ships every slot with bit k set to rank (r+k) % p while
/// receiving the same slots from (r-k) % p; afterwards slot i holds the
/// block sent by rank (r-i) % p, which phase 3 unpacks into receive block
/// (r-i) % p. ceil(log2 p) messages of ~p/2 blocks each replace the p-1
/// messages of the pairwise exchange — a latency win for small blocks.
/// (Bruck reads the whole send buffer into its slots before writing recvbuf,
/// so the in-place case needs no staging copy.)
int run_alltoall_bruck(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void const* const sendbuf = ctx.sendbuf;
    std::size_t const sendcount = ctx.sendcount;
    Datatype const& sendtype = *ctx.sendtype;
    void* const recvbuf = ctx.recvbuf;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& recvtype = *ctx.recvtype;
    int const p = comm.size();
    int const r = comm.rank();
    std::size_t const block_bytes = sendtype.packed_size(sendcount);
    Datatype const& byte_type = *predefined_type(BuiltinType::byte_);

    std::vector<std::byte> slots(static_cast<std::size_t>(p) * block_bytes);
    auto const slot = [&](int i) { return slots.data() + static_cast<std::size_t>(i) * block_bytes; };
    for (int i = 0; i < p; ++i) {
        sendtype.pack(
            displaced(sendbuf, ((r + i) % p) * static_cast<std::ptrdiff_t>(sendcount), sendtype),
            sendcount, slot(i));
    }

    std::vector<std::byte> send_stage;
    std::vector<std::byte> recv_stage;
    std::vector<int> round_slots;
    for (int k = 1; k < p; k <<= 1) {
        round_slots.clear();
        for (int i = 1; i < p; ++i) {
            if ((i & k) != 0) {
                round_slots.push_back(i);
            }
        }
        std::size_t const stage_bytes = round_slots.size() * block_bytes;
        send_stage.resize(stage_bytes);
        recv_stage.resize(stage_bytes);
        for (std::size_t j = 0; j < round_slots.size(); ++j) {
            std::memcpy(send_stage.data() + j * block_bytes, slot(round_slots[j]), block_bytes);
        }
        if (int const err = channel_sendrecv(
                comm, ctx.channel, (r + k) % p, send_stage.data(), stage_bytes, byte_type,
                (r - k + p) % p, recv_stage.data(), stage_bytes, byte_type);
            err != XMPI_SUCCESS) {
            return err;
        }
        for (std::size_t j = 0; j < round_slots.size(); ++j) {
            std::memcpy(slot(round_slots[j]), recv_stage.data() + j * block_bytes, block_bytes);
        }
    }

    std::size_t const elements_per_block =
        recvtype.size() == 0
            ? 0
            : std::min(block_bytes, recvtype.packed_size(recvcount)) / recvtype.size();
    for (int i = 0; i < p; ++i) {
        recvtype.unpack(
            slot(i),
            elements_per_block,
            displaced(recvbuf, ((r - i + p) % p) * static_cast<std::ptrdiff_t>(recvcount), recvtype));
    }
    return XMPI_SUCCESS;
}

/// @brief Pairwise exchange: p-1 rounds, round i pairs rank r with r+i / r-i.
/// An in-place call stages the receive buffer as send data first (pairwise
/// overwrites receive blocks while later rounds still need their originals).
int run_alltoall_pairwise(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void* const recvbuf = ctx.recvbuf;
    std::size_t const recvcount = ctx.recvcount;
    Datatype const& recvtype = *ctx.recvtype;
    int const p = comm.size();
    int const r = comm.rank();

    void const* sendbuf = ctx.sendbuf;
    std::size_t const sendcount = ctx.sendcount;
    Datatype const& sendtype = *ctx.sendtype;
    std::vector<std::byte> staged;
    if (ctx.in_place) {
        staged.resize(
            static_cast<std::size_t>(p) * recvcount * static_cast<std::size_t>(recvtype.extent()));
        std::memcpy(staged.data(), recvbuf, staged.size());
        sendbuf = staged.data();
    }

    local_copy(
        displaced(sendbuf, r * static_cast<std::ptrdiff_t>(sendcount), sendtype),
        sendcount, sendtype,
        displaced(recvbuf, r * static_cast<std::ptrdiff_t>(recvcount), recvtype), recvcount,
        recvtype);

    for (int i = 1; i < p; ++i) {
        int const to = (r + i) % p;
        int const from = (r - i + p) % p;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, to,
                displaced(sendbuf, to * static_cast<std::ptrdiff_t>(sendcount), sendtype),
                sendcount, sendtype, from,
                displaced(recvbuf, from * static_cast<std::ptrdiff_t>(recvcount), recvtype),
                recvcount, recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Pairwise alltoallv (the persistent alltoall plan replays this
/// with its own shape and channel).
int run_alltoallv_pairwise(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void* const recvbuf = ctx.recvbuf;
    int const* const recvcounts = ctx.recvcounts;
    int const* const rdispls = ctx.rdispls;
    Datatype const& recvtype = *ctx.recvtype;
    int const p = comm.size();
    int const r = comm.rank();

    std::vector<std::byte> staged;
    void const* sendbuf = ctx.sendbuf;
    Datatype const* sendtype = ctx.sendtype;
    int const* sendcounts = ctx.sendcounts;
    int const* sdispls = ctx.sdispls;
    if (ctx.in_place) {
        // MPI: send counts/displacements/type are taken from the receive side.
        std::ptrdiff_t max_end = 0;
        for (int i = 0; i < p; ++i) {
            max_end = std::max(
                max_end, static_cast<std::ptrdiff_t>(rdispls[i]) + recvcounts[i]);
        }
        staged.resize(static_cast<std::size_t>(max_end) * static_cast<std::size_t>(recvtype.extent()));
        std::memcpy(staged.data(), recvbuf, staged.size());
        sendbuf = staged.data();
        sendtype = &recvtype;
        sendcounts = recvcounts;
        sdispls = rdispls;
    }

    local_copy(
        displaced(sendbuf, sdispls[r], *sendtype),
        static_cast<std::size_t>(sendcounts[r]), *sendtype,
        displaced(recvbuf, rdispls[r], recvtype), static_cast<std::size_t>(recvcounts[r]),
        recvtype);

    for (int i = 1; i < p; ++i) {
        int const to = (r + i) % p;
        int const from = (r - i + p) % p;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, to, displaced(sendbuf, sdispls[to], *sendtype),
                static_cast<std::size_t>(sendcounts[to]), *sendtype, from,
                displaced(recvbuf, rdispls[from], recvtype),
                static_cast<std::size_t>(recvcounts[from]), recvtype);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

int run_alltoallw_pairwise(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    void const* const sendbuf = ctx.sendbuf;
    void* const recvbuf = ctx.recvbuf;
    int const p = comm.size();
    int const r = comm.rank();

    // Alltoallw displacements are in *bytes* (MPI semantics).
    auto const send_slice = [&](int i) {
        return static_cast<std::byte const*>(sendbuf) + ctx.sdispls[i];
    };
    auto const recv_slice = [&](int i) {
        return static_cast<std::byte*>(recvbuf) + ctx.rdispls[i];
    };

    local_copy(
        send_slice(r), static_cast<std::size_t>(ctx.sendcounts[r]), *ctx.sendtypes[r],
        recv_slice(r), static_cast<std::size_t>(ctx.recvcounts[r]), *ctx.recvtypes[r]);

    for (int i = 1; i < p; ++i) {
        int const to = (r + i) % p;
        int const from = (r - i + p) % p;
        if (int const err = channel_sendrecv(
                comm, ctx.channel, to, send_slice(to),
                static_cast<std::size_t>(ctx.sendcounts[to]), *ctx.sendtypes[to], from,
                recv_slice(from),
                static_cast<std::size_t>(ctx.recvcounts[from]), *ctx.recvtypes[from]);
            err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

/// @brief Neighborhood exchange on the communicator's topology graph: post
/// all receives first, then inject the sends (eager, complete locally), then
/// wait. Cost: outdegree messages per rank.
int run_neighbor_alltoallv_posted(CollCtx& ctx) {
    Comm& comm = *ctx.comm;
    auto const& topology = comm.topology();
    Datatype const& sendtype = *ctx.sendtype;
    Datatype const& recvtype = *ctx.recvtype;

    std::vector<Request*> requests;
    requests.reserve(topology.sources.size());
    int first_error = XMPI_SUCCESS;
    for (std::size_t j = 0; j < topology.sources.size(); ++j) {
        Request* request = nullptr;
        int const err = transport_irecv(
            comm, topology.sources[j], ctx.channel.tag, ctx.channel.context,
            static_cast<std::byte*>(ctx.recvbuf) + ctx.rdispls[j] * recvtype.extent(),
            static_cast<std::size_t>(ctx.recvcounts[j]), recvtype, &request);
        if (err != XMPI_SUCCESS) {
            if (first_error == XMPI_SUCCESS) {
                first_error = err;
            }
            continue;
        }
        requests.push_back(request);
    }
    for (std::size_t j = 0; j < topology.destinations.size(); ++j) {
        int const err = channel_send(
            comm, ctx.channel, topology.destinations[j],
            static_cast<std::byte const*>(ctx.sendbuf) + ctx.sdispls[j] * sendtype.extent(),
            static_cast<std::size_t>(ctx.sendcounts[j]), sendtype);
        if (err != XMPI_SUCCESS && first_error == XMPI_SUCCESS) {
            first_error = err;
        }
    }
    for (auto* request: requests) {
        Status status;
        request->wait(status);
        if (status.error != XMPI_SUCCESS && first_error == XMPI_SUCCESS) {
            first_error = status.error;
        }
        delete request;
    }
    return first_error;
}

[[nodiscard]] double msg_cost(tuning::SelectCtx const& sctx, std::size_t bytes) {
    return sctx.alpha + static_cast<double>(bytes) * sctx.beta;
}

// Bruck needs enough ranks for its log-round savings to pay for the packing;
// the byte threshold draws the line where moving each byte ~log2(p)/2 times
// stops being worth the saved round latency.
[[nodiscard]] bool alltoall_bruck_applicable(tuning::SelectCtx const& sctx) {
    return sctx.p >= 2;
}

[[nodiscard]] bool alltoall_bruck_preferred(tuning::SelectCtx const& sctx) {
    return sctx.p >= tuning::bruck_alltoall_min_ranks
           && sctx.block_bytes <= tuning::bruck_alltoall_max_bytes;
}

[[nodiscard]] double cost_alltoall_bruck(tuning::SelectCtx const& sctx) {
    int const rounds = std::bit_width(static_cast<unsigned>(sctx.p - 1));
    return static_cast<double>(rounds)
           * msg_cost(sctx, sctx.block_bytes * static_cast<std::size_t>(sctx.p) / 2);
}

[[nodiscard]] double cost_alltoall_pairwise(tuning::SelectCtx const& sctx) {
    return static_cast<double>(sctx.p - 1) * msg_cost(sctx, sctx.block_bytes);
}

} // namespace

void register_alltoall_algos(std::vector<CollAlgo>& registry) {
    registry.push_back(
        {tuning::CollOp::alltoall, "bruck", alltoall_bruck_applicable, alltoall_bruck_preferred,
         cost_alltoall_bruck, run_alltoall_bruck});
    registry.push_back(
        {tuning::CollOp::alltoall, "pairwise", nullptr, nullptr, cost_alltoall_pairwise,
         run_alltoall_pairwise});
    registry.push_back(
        {tuning::CollOp::alltoallv, "pairwise", nullptr, nullptr, nullptr,
         run_alltoallv_pairwise});
    registry.push_back(
        {tuning::CollOp::alltoallw, "pairwise", nullptr, nullptr, nullptr,
         run_alltoallw_pairwise});
    registry.push_back(
        {tuning::CollOp::neighbor_alltoallv, "posted", nullptr, nullptr, nullptr,
         run_neighbor_alltoallv_posted});
}

} // namespace xmpi::detail
