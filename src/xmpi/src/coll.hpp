/// @file coll.hpp
/// @brief Internal declarations shared by the collective layer: the
/// blocking tag space, reduction scratch, and the collectives that are not
/// registry operations (Ibarrier, communicator management, ULFM).
///
/// Every registry collective — blocking, non-blocking or persistent — is one
/// CollCtx run through run_collective() (coll_registry.hpp). The algorithms
/// are built on the internal point-to-point transport with the textbook
/// patterns production MPI implementations use, so the alpha/beta network
/// model induces a realistic cost structure (e.g. binomial bcast costs
/// ~log2(p) * alpha).
#pragma once

#include <cstddef>
#include <vector>

#include "transport.hpp"
#include "xmpi/comm.hpp"
#include "xmpi/request.hpp"

namespace xmpi::detail {

/// @brief Internal tag space for collective-context messages; one tag per
/// collective kind keeps back-to-back different collectives unambiguous
/// (same-kind back-to-back is safe by the non-overtaking guarantee).
/// Registry collectives reach these tags only through blocking_channel().
namespace coll_tag {
inline constexpr int barrier          = 1;
inline constexpr int bcast            = 2;
inline constexpr int gather           = 3;
inline constexpr int scatter          = 4;
inline constexpr int allgather        = 5;
inline constexpr int alltoall         = 6;
inline constexpr int reduce           = 7;
inline constexpr int scan             = 8;
inline constexpr int neighbor         = 9;
inline constexpr int comm_create      = 11;
inline constexpr int reduce_scatter   = 12;
} // namespace coll_tag

/// @brief Reusable scratch for reduction collectives. One-shot calls
/// allocate it on the stack; persistent requests hoist one instance into
/// the request so restarts skip the per-round allocations.
struct ReduceScratch {
    std::vector<std::byte> accumulator;
    std::vector<std::byte> incoming;
};

/// @brief Non-blocking barrier on the communicator's shared arrival
/// counter: the one collective with its own algorithm outside the registry
/// (it needs no messages, only a modelled dissemination latency).
Request* coll_ibarrier(Comm& comm);

/// @name Communicator management (collective over the parent communicator)
/// @{
int comm_dup(Comm& comm, Comm** newcomm);
int comm_split(Comm& comm, int color, int key, Comm** newcomm);
int comm_create(Comm& comm, Group const& group, Comm** newcomm);
int dist_graph_create_adjacent(
    Comm& comm, int indegree, int const* sources, int outdegree, int const* destinations,
    Comm** newcomm);
/// @}

/// @name ULFM
/// @{
int ulfm_revoke(Comm& comm);
int ulfm_shrink(Comm& comm, Comm** newcomm);
int ulfm_agree(Comm& comm, int* flag);
/// @}

} // namespace xmpi::detail
