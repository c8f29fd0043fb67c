/// @file test_coll_algorithms.cpp
/// @brief Every registry algorithm of every collective op, forced one at a
/// time (tuning::candidates + tuning::coll().force_algorithm) and checked
/// against a sequential reference — blocking, in place wherever the op has
/// an in-place form, and once more on a non-blocking channel while every
/// blocking channel holds a poison message. An algorithm that sent or
/// received anywhere but ctx.channel would consume a poison (a truncated or
/// wrong result) or leave its own message where the poison drain finds it.
///
/// White-box: drives run_collective() (the one collective entry) directly,
/// so every op can be put on a foreign channel, not just the ones with
/// public non-blocking forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "coll_registry.hpp"
#include "xmpi/xmpi.hpp"

namespace {

namespace tuning = xmpi::tuning;
using tuning::CollOp;
using xmpi::World;
using xmpi::detail::CollChannel;
using xmpi::detail::CollCtx;
using xmpi::detail::run_collective;

constexpr int kN = 3;          ///< elements per block
constexpr int kPoison = -7777; ///< parked on every blocking channel

/// @brief Contribution of @c rank at element @c i.
int value(int rank, int i) {
    return 100 * rank + i + 1;
}

/// @brief Block size of rank @c j in the v-variants (ragged on purpose).
int vcount(int j) {
    return j % 3 + 1;
}

/// @brief Exclusive prefix sums of @c counts.
std::vector<int> displs_of(std::vector<int> const& counts) {
    std::vector<int> displs(counts.size());
    int offset = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
        displs[j] = offset;
        offset += counts[j];
    }
    return displs;
}

xmpi::Datatype const* ints() {
    return XMPI_INT;
}

/// @brief One op's call, run on @c channel (in place if asked) and checked
/// against the sequential reference.
struct Call {
    xmpi::Comm& comm;
    int r;
    int p;
    bool in_place;
    CollChannel channel;

    [[nodiscard]] CollCtx ctx() const { return CollCtx{.comm = &comm, .channel = channel}; }
};

void run(CollOp op, CollCtx ctx) {
    ASSERT_EQ(run_collective(op, ctx), XMPI_SUCCESS) << tuning::coll_op_name(op);
}

void check_barrier(Call const& call) {
    run(CollOp::barrier, call.ctx());
}

void check_bcast(Call const& call) {
    int const root = call.p - 1;
    std::vector<int> buf(kN, -1);
    for (int i = 0; call.r == root && i < kN; ++i) {
        buf[i] = value(root, i);
    }
    CollCtx ctx = call.ctx();
    ctx.recvbuf = buf.data();
    ctx.recvcount = kN;
    ctx.recvtype = ints();
    ctx.root = root;
    run(CollOp::bcast, ctx);
    for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(buf[i], value(root, i));
    }
}

/// @brief gather (v = false) and gatherv (v = true), rooted at p / 2.
void check_gather(Call const& call, bool v) {
    int const root = call.p / 2;
    std::vector<int> counts(call.p, kN);
    for (int j = 0; v && j < call.p; ++j) {
        counts[j] = vcount(j);
    }
    std::vector<int> const displs = displs_of(counts);
    int const mine = counts[call.r];
    std::vector<int> send(mine);
    std::vector<int> recv(displs.back() + counts.back(), -1);
    for (int i = 0; i < mine; ++i) {
        send[i] = value(call.r, i);
    }
    bool const in_place = call.in_place && call.r == root;
    if (in_place) {
        std::copy(send.begin(), send.end(), recv.begin() + displs[call.r]);
    }
    CollCtx ctx = call.ctx();
    ctx.sendbuf = in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.sendcount = static_cast<std::size_t>(mine);
    ctx.recvcount = kN;
    ctx.sendtype = ints();
    ctx.recvtype = ints();
    ctx.root = root;
    ctx.recvcounts = counts.data();
    ctx.rdispls = displs.data();
    run(v ? CollOp::gatherv : CollOp::gather, ctx);
    for (int j = 0; call.r == root && j < call.p; ++j) {
        for (int i = 0; i < counts[j]; ++i) {
            EXPECT_EQ(recv[displs[j] + i], value(j, i)) << "block " << j;
        }
    }
}

/// @brief scatter (v = false) and scatterv (v = true), rooted at p / 2.
void check_scatter(Call const& call, bool v) {
    int const root = call.p / 2;
    std::vector<int> counts(call.p, kN);
    for (int j = 0; v && j < call.p; ++j) {
        counts[j] = vcount(j);
    }
    std::vector<int> const displs = displs_of(counts);
    std::vector<int> send;
    if (call.r == root) {
        send.resize(displs.back() + counts.back());
        for (int j = 0; j < call.p; ++j) {
            for (int i = 0; i < counts[j]; ++i) {
                send[displs[j] + i] = value(j, i);
            }
        }
    }
    std::vector<int> recv(counts[call.r], -1);
    bool const in_place = call.in_place && call.r == root;
    CollCtx ctx = call.ctx();
    ctx.sendbuf = send.data();
    ctx.recvbuf = in_place ? xmpi::IN_PLACE : recv.data();
    ctx.sendcount = kN;
    ctx.recvcount = static_cast<std::size_t>(counts[call.r]);
    ctx.sendtype = ints();
    ctx.recvtype = ints();
    ctx.root = root;
    ctx.sendcounts = counts.data();
    ctx.sdispls = displs.data();
    run(v ? CollOp::scatterv : CollOp::scatter, ctx);
    for (int i = 0; !in_place && i < counts[call.r]; ++i) {
        EXPECT_EQ(recv[i], value(call.r, i));
    }
}

/// @brief allgather (v = false) and allgatherv (v = true).
void check_allgather(Call const& call, bool v) {
    std::vector<int> counts(call.p, kN);
    for (int j = 0; v && j < call.p; ++j) {
        counts[j] = vcount(j);
    }
    std::vector<int> const displs = displs_of(counts);
    int const mine = counts[call.r];
    std::vector<int> send(mine);
    std::vector<int> recv(displs.back() + counts.back(), -1);
    for (int i = 0; i < mine; ++i) {
        send[i] = value(call.r, i);
    }
    if (call.in_place) {
        std::copy(send.begin(), send.end(), recv.begin() + displs[call.r]);
    }
    CollCtx ctx = call.ctx();
    ctx.sendbuf = call.in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.sendcount = static_cast<std::size_t>(mine);
    ctx.recvcount = kN;
    ctx.sendtype = ints();
    ctx.recvtype = ints();
    ctx.recvcounts = counts.data();
    ctx.rdispls = displs.data();
    run(v ? CollOp::allgatherv : CollOp::allgather, ctx);
    for (int j = 0; j < call.p; ++j) {
        for (int i = 0; i < counts[j]; ++i) {
            EXPECT_EQ(recv[displs[j] + i], value(j, i)) << "block " << j;
        }
    }
}

/// @brief Element @c i of the block rank @c from sends to rank @c to.
int pair_value(int from, int to, int i) {
    return 1000 * from + 10 * to + i + 1;
}

/// @brief Elements rank a sends to rank b in the v/w variants; symmetric,
/// as MPI requires of an in-place alltoallv.
int pair_count(int a, int b) {
    return (a + b) % 3 + 1;
}

void check_alltoall(Call const& call) {
    std::vector<int> send(call.p * kN);
    std::vector<int> recv(call.p * kN, -1);
    for (int j = 0; j < call.p; ++j) {
        for (int i = 0; i < kN; ++i) {
            send[j * kN + i] = pair_value(call.r, j, i);
        }
    }
    if (call.in_place) {
        recv = send;
    }
    CollCtx ctx = call.ctx();
    ctx.sendbuf = call.in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.sendcount = kN;
    ctx.recvcount = kN;
    ctx.sendtype = ints();
    ctx.recvtype = ints();
    run(CollOp::alltoall, ctx);
    for (int j = 0; j < call.p; ++j) {
        for (int i = 0; i < kN; ++i) {
            EXPECT_EQ(recv[j * kN + i], pair_value(j, call.r, i)) << "block " << j;
        }
    }
}

/// @brief alltoallv (w = false) and alltoallw (w = true, byte displacements).
void check_alltoallv(Call const& call, bool w) {
    std::vector<int> sendcounts(call.p);
    std::vector<int> recvcounts(call.p);
    for (int j = 0; j < call.p; ++j) {
        sendcounts[j] = pair_count(call.r, j);
        recvcounts[j] = pair_count(j, call.r);
    }
    std::vector<int> sdispls = displs_of(sendcounts);
    std::vector<int> rdispls = displs_of(recvcounts);
    std::vector<int> send(sdispls.back() + sendcounts.back());
    std::vector<int> recv(rdispls.back() + recvcounts.back(), -1);
    for (int j = 0; j < call.p; ++j) {
        for (int i = 0; i < sendcounts[j]; ++i) {
            send[sdispls[j] + i] = pair_value(call.r, j, i);
        }
    }
    if (call.in_place) {
        recv = send;
    }
    std::vector<xmpi::Datatype const*> types(call.p, ints());
    std::vector<int> sbytes(sdispls);
    std::vector<int> rbytes(rdispls);
    for (int j = 0; j < call.p; ++j) {
        sbytes[j] *= static_cast<int>(sizeof(int));
        rbytes[j] *= static_cast<int>(sizeof(int));
    }
    CollCtx ctx = call.ctx();
    ctx.sendbuf = call.in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.sendtype = ints();
    ctx.recvtype = ints();
    ctx.sendcounts = sendcounts.data();
    ctx.sdispls = w ? sbytes.data() : sdispls.data();
    ctx.recvcounts = recvcounts.data();
    ctx.rdispls = w ? rbytes.data() : rdispls.data();
    if (w) {
        ctx.sendtypes = types.data();
        ctx.recvtypes = types.data();
    }
    run(w ? CollOp::alltoallw : CollOp::alltoallv, ctx);
    for (int j = 0; j < call.p; ++j) {
        for (int i = 0; i < recvcounts[j]; ++i) {
            EXPECT_EQ(recv[rdispls[j] + i], pair_value(j, call.r, i)) << "block " << j;
        }
    }
}

/// @brief Ring neighborhood: receive from the left, send to the right.
/// Runs on the graph communicator the caller created (call.comm).
void check_neighbor(Call const& call) {
    int const left = (call.r - 1 + call.p) % call.p;
    std::vector<int> send(kN);
    std::vector<int> recv(kN, -1);
    for (int i = 0; i < kN; ++i) {
        send[i] = value(call.r, i);
    }
    int const counts[1] = {kN};
    int const displs[1] = {0};
    CollCtx ctx = call.ctx();
    ctx.sendbuf = send.data();
    ctx.recvbuf = recv.data();
    ctx.sendtype = ints();
    ctx.recvtype = ints();
    ctx.sendcounts = counts;
    ctx.sdispls = displs;
    ctx.recvcounts = counts;
    ctx.rdispls = displs;
    run(CollOp::neighbor_alltoallv, ctx);
    for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(recv[i], value(left, i));
    }
}

/// @brief Sum over ranks [first, last) of value(rank, i).
int range_sum(int first, int last, int i) {
    int sum = 0;
    for (int j = first; j < last; ++j) {
        sum += value(j, i);
    }
    return sum;
}

/// @brief reduce (rooted at p / 2), allreduce and (ex)scan with SUM.
void check_reduction(Call const& call, CollOp op, bool exclusive = false) {
    int const root = call.p / 2;
    std::vector<int> send(kN);
    std::vector<int> recv(kN, -1);
    for (int i = 0; i < kN; ++i) {
        send[i] = value(call.r, i);
    }
    bool const in_place = call.in_place && (op != CollOp::reduce || call.r == root);
    if (in_place) {
        recv = send;
    }
    CollCtx ctx = call.ctx();
    ctx.sendbuf = in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.sendcount = kN;
    ctx.sendtype = ints();
    ctx.op = XMPI_SUM;
    ctx.root = root;
    ctx.exclusive = exclusive;
    run(op, ctx);
    for (int i = 0; i < kN; ++i) {
        if (op == CollOp::scan) {
            if (!exclusive) {
                EXPECT_EQ(recv[i], range_sum(0, call.r + 1, i));
            } else if (call.r > 0) {
                EXPECT_EQ(recv[i], range_sum(0, call.r, i));
            }
        } else if (op == CollOp::allreduce || call.r == root) {
            EXPECT_EQ(recv[i], range_sum(0, call.p, i));
        }
    }
}

void check_reduce_scatter(Call const& call) {
    // Element i of block j of rank r's input: value(r, j * kN + i).
    std::vector<int> send(call.p * kN);
    for (int k = 0; k < call.p * kN; ++k) {
        send[k] = value(call.r, k);
    }
    // In place the input sits in recvbuf and the result overwrites its first
    // block.
    std::vector<int> recv = call.in_place ? send : std::vector<int>(kN, -1);
    CollCtx ctx = call.ctx();
    ctx.sendbuf = call.in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.recvcount = kN;
    ctx.sendtype = ints();
    ctx.op = XMPI_SUM;
    run(CollOp::reduce_scatter, ctx);
    for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(recv[i], range_sum(0, call.p, call.r * kN + i));
    }
}

/// @brief Runs @c op's check (both scan flavours for scan).
void check(CollOp op, Call const& call) {
    switch (op) {
    case CollOp::barrier: return check_barrier(call);
    case CollOp::bcast: return check_bcast(call);
    case CollOp::gather: return check_gather(call, false);
    case CollOp::gatherv: return check_gather(call, true);
    case CollOp::scatter: return check_scatter(call, false);
    case CollOp::scatterv: return check_scatter(call, true);
    case CollOp::allgather: return check_allgather(call, false);
    case CollOp::allgatherv: return check_allgather(call, true);
    case CollOp::alltoall: return check_alltoall(call);
    case CollOp::alltoallv: return check_alltoallv(call, false);
    case CollOp::alltoallw: return check_alltoallv(call, true);
    case CollOp::neighbor_alltoallv: return check_neighbor(call);
    case CollOp::reduce:
    case CollOp::allreduce: return check_reduction(call, op);
    case CollOp::scan:
        check_reduction(call, op, false);
        return check_reduction(call, op, true);
    case CollOp::reduce_scatter: return check_reduce_scatter(call);
    case CollOp::count_: break;
    }
    FAIL() << "unknown op";
}

/// @brief Ops whose in-place form the dispatcher resolves.
bool has_in_place(CollOp op) {
    switch (op) {
    case CollOp::barrier:
    case CollOp::bcast:
    case CollOp::alltoallw:
    case CollOp::neighbor_alltoallv: return false;
    default: return true;
    }
}

/// @brief The distinct blocking channels of every op on @c comm.
std::vector<CollChannel> blocking_channels(xmpi::Comm const& comm) {
    std::vector<CollChannel> channels;
    for (std::size_t k = 0; k < tuning::num_coll_ops; ++k) {
        CollChannel const channel =
            xmpi::detail::blocking_channel(comm, static_cast<CollOp>(k));
        bool seen = false;
        for (auto const& known: channels) {
            seen = seen || (known.context == channel.context && known.tag == channel.tag);
        }
        if (!seen) {
            channels.push_back(channel);
        }
    }
    return channels;
}

/// @brief Runs @c op's check on a fresh non-blocking channel while one
/// poison message per peer sits on every blocking channel, then drains the
/// poisons: each must still be there, untouched.
void check_on_foreign_channel(CollOp op, xmpi::Comm& comm, int r, int p) {
    auto const channels = blocking_channels(comm);
    int const poison = kPoison;
    for (auto const& channel: channels) {
        for (int peer = 0; peer < p; ++peer) {
            if (peer != r) {
                ASSERT_EQ(
                    xmpi::detail::channel_send(comm, channel, peer, &poison, 1, *ints()),
                    XMPI_SUCCESS);
            }
        }
    }
    CollChannel const foreign{comm.nbc_context(), comm.next_nbc_sequence()};
    check(op, Call{comm, r, p, false, foreign});
    for (auto const& channel: channels) {
        for (int peer = 0; peer < p; ++peer) {
            if (peer == r) {
                continue;
            }
            int got = 0;
            ASSERT_EQ(
                xmpi::detail::channel_recv(comm, channel, peer, &got, 1, *ints()), XMPI_SUCCESS)
                << "a message other than the poison sat on blocking tag " << channel.tag;
            EXPECT_EQ(got, kPoison) << "blocking tag " << channel.tag << " from rank " << peer;
        }
    }
}

class EveryAlgorithm : public ::testing::TestWithParam<int> {
protected:
    void SetUp() override {
        // A node grouping of 2 makes the hierarchical entries applicable
        // (from p = 3 on, with a ragged last node at odd p).
        tuning::coll().node_size = 2;
        xmpi::profile::set_tracing_enabled(true);
    }

    void TearDown() override {
        tuning::coll().force_algorithm = nullptr;
        tuning::coll().node_size = 0;
        xmpi::profile::set_tracing_enabled(false);
    }
};

TEST_P(EveryAlgorithm, MatchesTheSequentialReferenceOnItsChannel) {
    int const p = GetParam();
    int forced_runs = 0;
    for (std::size_t k = 0; k < tuning::num_coll_ops; ++k) {
        auto const op = static_cast<CollOp>(k);
        tuning::SelectCtx sctx;
        sctx.p = p;
        sctx.block_bytes = kN * sizeof(int);
        for (char const* algorithm: tuning::candidates(op, sctx)) {
            SCOPED_TRACE(std::string(tuning::coll_op_name(op)) + "/" + algorithm);
            tuning::coll().force_algorithm = algorithm;
            World::run_ranked(p, [&](int r) {
                XMPI_Comm comm = XMPI_COMM_WORLD;
                if (op == CollOp::neighbor_alltoallv) {
                    int const left = (r - 1 + p) % p;
                    int const right = (r + 1) % p;
                    ASSERT_EQ(
                        XMPI_Dist_graph_create_adjacent(
                            XMPI_COMM_WORLD, 1, &left, nullptr, 1, &right, nullptr, 0, &comm),
                        XMPI_SUCCESS);
                }
                (void)xmpi::profile::take_algorithm();
                auto const blocking = xmpi::detail::blocking_channel(*comm, op);
                check(op, Call{*comm, r, p, false, blocking});
                EXPECT_STREQ(xmpi::profile::take_algorithm(), algorithm) << "force not honoured";
                if (has_in_place(op)) {
                    check(op, Call{*comm, r, p, true, blocking});
                }
                check_on_foreign_channel(op, *comm, r, p);
                if (comm != XMPI_COMM_WORLD) {
                    XMPI_Comm_free(&comm);
                }
            });
            ++forced_runs;
        }
    }
    EXPECT_GE(forced_runs, static_cast<int>(tuning::num_coll_ops));
}

// ---------------------------------------------------------------------------
// The ring-shaped reductions (allreduce, reduce_scatter) on payloads where
// the ring is the default pick: uneven block splits and derived datatypes
// ---------------------------------------------------------------------------

/// @brief Where a datatype puts its ints: @c extent ints per element, data
/// at the @c data offsets, gaps everywhere else.
struct Layout {
    xmpi::Datatype const* type;
    int extent;
    std::vector<int> data;
};

constexpr int kSendGap = -5555; ///< gap filler of the input
constexpr int kRecvGap = -6666; ///< gap filler of a separate receive buffer

/// @brief allreduce or (ex)scan (over @c n elements) or reduce_scatter (@c n
/// elements per block) with SUM in @c layout, checked element by element;
/// the k-th data int of the whole input vector of rank r holds value(r, k).
/// A separate receive buffer's gaps must come back untouched. @c exclusive
/// turns scan into exscan.
void check_ring_shaped(
    Call const& call, CollOp op, int n, Layout const& layout, bool exclusive = false) {
    int const per = static_cast<int>(layout.data.size());
    int const elements = op == CollOp::reduce_scatter ? n * call.p : n;
    std::vector<int> send(static_cast<std::size_t>(elements) * layout.extent, kSendGap);
    for (int e = 0; e < elements; ++e) {
        for (int j = 0; j < per; ++j) {
            send[e * layout.extent + layout.data[j]] = value(call.r, e * per + j);
        }
    }
    std::vector<int> recv = call.in_place
                                ? send
                                : std::vector<int>(
                                      static_cast<std::size_t>(n) * layout.extent, kRecvGap);
    CollCtx ctx = call.ctx();
    ctx.sendbuf = call.in_place ? xmpi::IN_PLACE : send.data();
    ctx.recvbuf = recv.data();
    ctx.sendcount = static_cast<std::size_t>(n);
    ctx.recvcount = static_cast<std::size_t>(n);
    ctx.sendtype = layout.type;
    ctx.op = XMPI_SUM;
    ctx.exclusive = exclusive;
    run(op, ctx);
    // reduce_scatter: rank r's result is block r of the reduced vector;
    // (ex)scan: the ranks before r, and r itself for scan. Exscan leaves
    // rank 0's receive buffer untouched.
    int const first = op == CollOp::reduce_scatter ? call.r * n : 0;
    int const contributors = op != CollOp::scan ? call.p : exclusive ? call.r : call.r + 1;
    bool const defined = contributors > 0;
    for (int e = 0; defined && e < n; ++e) {
        for (int j = 0; j < per; ++j) {
            int const k = (first + e) * per + j;
            ASSERT_EQ(recv[e * layout.extent + layout.data[j]], range_sum(0, contributors, k))
                << "element " << e << " of " << n;
        }
    }
    if (!call.in_place) {
        auto const untouched =
            defined ? recv.size() - static_cast<std::size_t>(n * per) : recv.size();
        EXPECT_EQ(
            static_cast<std::size_t>(std::count(recv.begin(), recv.end(), kRecvGap)), untouched)
            << "a gap of the receive buffer was overwritten";
    }
}

/// @brief Forces every candidate of @c op, then none (the default pick),
/// and runs check_ring_shaped blocking and in place. The default pick must
/// be the one tuning::select names for the payload. Every entry writes only
/// the datatype's elements into a separate receive buffer.
void check_every_ring_shaped(
    CollOp op, int p, int n, Layout const& layout, bool exclusive = false) {
    tuning::SelectCtx sctx;
    sctx.p = p;
    sctx.block_bytes = layout.type->packed_size(static_cast<std::size_t>(n));
    std::vector<char const*> algorithms = tuning::candidates(op, sctx);
    algorithms.push_back(nullptr);
    char const* const expected_default = tuning::select(op, sctx).algorithm;
    for (char const* algorithm: algorithms) {
        SCOPED_TRACE(
            std::string(tuning::coll_op_name(op)) + "/"
            + (algorithm != nullptr ? algorithm : "default"));
        tuning::coll().force_algorithm = algorithm;
        World::run_ranked(p, [&](int r) {
            auto const blocking = xmpi::detail::blocking_channel(*XMPI_COMM_WORLD, op);
            (void)xmpi::profile::take_algorithm();
            for (bool const in_place: {false, true}) {
                check_ring_shaped(
                    Call{*XMPI_COMM_WORLD, r, p, in_place, blocking}, op, n, layout, exclusive);
                EXPECT_STREQ(
                    xmpi::profile::take_algorithm(),
                    algorithm != nullptr ? algorithm : expected_default);
            }
        });
    }
    tuning::coll().force_algorithm = nullptr;
}

/// Counts prime to every tested p, so the allreduce ring splits unevenly;
/// the contiguous ones also pass the ring's default bound
/// (tuning::ring_allreduce_min_bytes, scaled for p > 4) at every p >= 3.
constexpr int kLargeCount = 10007;      ///< allreduce elements (ints)
constexpr int kLargeBlock = 3001;       ///< reduce_scatter elements per block (ints)
constexpr int kDerivedCount = 3001;     ///< allreduce elements (derived type)
constexpr int kDerivedBlock = 1001;     ///< reduce_scatter elements per block (derived type)

TEST_P(EveryAlgorithm, LargeUnevenReductionsMatchTheReference) {
    int const p = GetParam();
    Layout const contiguous{ints(), 1, {0}};
    if (p >= 3) {
        tuning::SelectCtx sctx;
        sctx.p = p;
        sctx.block_bytes = kLargeCount * sizeof(int);
        EXPECT_STREQ(tuning::select(CollOp::allreduce, sctx).algorithm, "ring");
        sctx.block_bytes = kLargeBlock * sizeof(int);
        EXPECT_STREQ(tuning::select(CollOp::reduce_scatter, sctx).algorithm, "ring");
    }
    check_every_ring_shaped(CollOp::allreduce, p, kLargeCount, contiguous);
    check_every_ring_shaped(CollOp::reduce_scatter, p, kLargeBlock, contiguous);
}

TEST_P(EveryAlgorithm, DerivedDatatypeReductionsMatchTheReference) {
    // Two ints with a gap between them, resized to a four-int extent: a gap
    // inside every element and one after it.
    XMPI_Datatype vector = XMPI_DATATYPE_NULL;
    XMPI_Datatype resized = XMPI_DATATYPE_NULL;
    ASSERT_EQ(XMPI_Type_vector(2, 1, 2, XMPI_INT, &vector), XMPI_SUCCESS);
    ASSERT_EQ(
        XMPI_Type_create_resized(vector, 0, 4 * static_cast<XMPI_Aint>(sizeof(int)), &resized),
        XMPI_SUCCESS);
    ASSERT_EQ(XMPI_Type_commit(&resized), XMPI_SUCCESS);
    Layout const gapped{resized, 4, {0, 2}};
    int const p = GetParam();
    check_every_ring_shaped(CollOp::allreduce, p, kDerivedCount, gapped);
    check_every_ring_shaped(CollOp::reduce_scatter, p, kDerivedBlock, gapped);
    check_every_ring_shaped(CollOp::scan, p, kDerivedBlock, gapped);
    check_every_ring_shaped(CollOp::scan, p, kDerivedBlock, gapped, /*exclusive=*/true);
    XMPI_Type_free(&resized);
    XMPI_Type_free(&vector);
}

INSTANTIATE_TEST_SUITE_P(
    WorldSizes, EveryAlgorithm, ::testing::Values(1, 2, 3, 4, 5, 8),
    [](auto const& info) { return "p" + std::to_string(info.param); });

class RingAllreduce : public ::testing::TestWithParam<int> {
protected:
    void TearDown() override {
        tuning::coll().force_algorithm = nullptr;
        xmpi::profile::set_tracing_enabled(false);
    }
};

TEST_P(RingAllreduce, FloatSumIsBytewiseIdenticalOnEveryRank) {
    // Float addition is not associative, so a rank that folded its own copy
    // of a block in another order would see different bits. The ring folds
    // each block once, on its owner, and copies it.
    int const p = GetParam();
    constexpr int kFloats = 4099;
    tuning::coll().force_algorithm = "ring";
    xmpi::profile::set_tracing_enabled(true);
    std::vector<std::vector<float>> results(p);
    World::run_ranked(p, [&](int r) {
        std::vector<float> send(kFloats);
        for (int i = 0; i < kFloats; ++i) {
            // Magnitudes spread over six decades: the sum depends on the order.
            send[i] = static_cast<float>((r * 7919 + i * 104729) % 1000003) * 1e-3f
                      * (i % 3 == 0 ? 1e3f : 1.0f);
        }
        std::vector<float> recv(kFloats, 0.0f);
        (void)xmpi::profile::take_algorithm();
        ASSERT_EQ(
            XMPI_Allreduce(
                send.data(), recv.data(), kFloats, XMPI_FLOAT, XMPI_SUM, XMPI_COMM_WORLD),
            XMPI_SUCCESS);
        EXPECT_STREQ(xmpi::profile::take_algorithm(), "ring");
        results[r] = std::move(recv);
    });
    for (int r = 1; r < p; ++r) {
        ASSERT_EQ(results[r].size(), results[0].size());
        EXPECT_EQ(
            std::memcmp(results[r].data(), results[0].data(), kFloats * sizeof(float)), 0)
            << "rank " << r << " differs from rank 0";
    }
}

INSTANTIATE_TEST_SUITE_P(
    WorldSizes, RingAllreduce, ::testing::Values(3, 5, 8),
    [](auto const& info) { return "p" + std::to_string(info.param); });

} // namespace
