/// @file netmodel.hpp
/// @brief The alpha/beta network cost model of the xmpi substrate.
///
/// xmpi runs all ranks as threads of one process, so raw message transfer is
/// a memcpy and the cost structure of a cluster interconnect (per-message
/// start-up latency, per-byte bandwidth cost) is absent. For experiments whose
/// *shape* depends on that cost structure (e.g. the grid/sparse all-to-all
/// comparison of the paper's Fig. 10), a World can be configured with an
/// alpha/beta model: each message injection additionally costs
/// `alpha + bytes * beta` seconds, realised by sleeping in the sending thread.
/// Sleeping threads do not occupy the CPU, so ranks pay the cost concurrently,
/// exactly like network injection overhead on a real machine.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>

namespace xmpi {

/// @brief Per-message cost model: alpha seconds start-up + beta seconds/byte.
struct NetworkModel {
    /// Message start-up latency in seconds (software + injection overhead).
    double alpha = 0.0;
    /// Per-byte cost in seconds (inverse bandwidth).
    double beta = 0.0;

    /// @brief True iff the model induces any delay at all.
    [[nodiscard]] bool enabled() const {
        return alpha > 0.0 || beta > 0.0;
    }

    /// @brief Cost of one message of the given size, in seconds.
    [[nodiscard]] double message_cost(std::size_t bytes) const {
        return alpha + static_cast<double>(bytes) * beta;
    }

    /// @brief Charges the cost of one message to the calling thread.
    void charge(std::size_t bytes) const {
        if (!enabled()) {
            return;
        }
        auto const delay = std::chrono::duration<double>(message_cost(bytes));
        std::this_thread::sleep_for(delay);
    }
};

/// @brief Collective algorithm selection thresholds.
///
/// When a World runs with a network model, collectives compare modeled
/// alpha/beta costs of the candidate algorithms directly. Without a model
/// (the common in-process case), per-message software overhead is the only
/// "alpha", so latency-optimal algorithms (Bruck, recursive doubling,
/// binomial trees) win for small payloads while copy-minimal algorithms
/// (pairwise, ring, linear direct sends) win once memcpy bandwidth
/// dominates. These byte thresholds draw that line; they refer to the
/// *packed per-peer block size* of the collective.
namespace tuning {
/// Largest per-peer block for which Bruck's log2(p)-round alltoall beats the
/// pairwise exchange (Bruck moves each byte ~log2(p)/2 times).
inline constexpr std::size_t bruck_alltoall_max_bytes = 2048;
/// Bruck needs enough ranks for the round savings to pay for its packing.
inline constexpr int bruck_alltoall_min_ranks = 8;
/// Largest per-rank block for which recursive doubling beats the ring
/// allgather (both move the same bytes; doubling has log2(p) rounds).
inline constexpr std::size_t rd_allgather_max_bytes = 32 * 1024;
/// Largest per-child block for which the binomial scatter tree (log2(p)
/// rounds, bytes forwarded through intermediate nodes) beats the root's
/// linear direct sends.
inline constexpr std::size_t binomial_scatter_max_bytes = 16 * 1024;
/// Largest element payload for which the two-level hierarchical allreduce
/// (intra-node reduce, leader-level recursive doubling, intra-node bcast)
/// is preferred over flat recursive doubling when a node grouping
/// (XMPI_NODE_SIZE) is active: the hierarchy roughly halves the total
/// message count but adds tree depth, a trade that pays off while messages
/// are latency-bound.
inline constexpr std::size_t hier_allreduce_max_bytes = 4096;
/// Largest per-rank block for which the two-level hierarchical allgather
/// (intra-node gather, leader ring over node super-blocks, intra-node
/// bcast) is preferred over the flat algorithms when a node grouping is
/// active; beyond it the full-buffer intra-node bcast dominates.
inline constexpr std::size_t hier_allgather_max_bytes = 32 * 1024;
/// Smallest allreduce payload (the whole vector) for which the ring
/// reduce-scatter + allgather is preferred over recursive doubling at
/// p = 3 and 4: the ring moves 2(p-1)/p of the buffer per rank in 2(p-1)
/// steps, doubling the full buffer in ceil(log2 p) rounds (plus a
/// two-buffer fold at a non-power-of-two p). Beyond p = 4 the bound grows
/// as p / 4, keeping the ring's per-step block at this size / 4 (at p = 16
/// the ring ties doubling at 4 KiB blocks and loses at 1 KiB). The same
/// whole-vector size decides between the ring reduce-scatter and
/// reduce_then_scatter.
inline constexpr std::size_t ring_allreduce_min_bytes = 16 * 1024;
} // namespace tuning

} // namespace xmpi
