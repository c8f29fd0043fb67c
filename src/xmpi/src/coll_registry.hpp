/// @file coll_registry.hpp
/// @brief The collective algorithm registry: one named entry per algorithm,
/// one entry point and one selection seam for all of them.
///
/// A collective call is one CollCtx. Its caller — an XMPI entry point
/// (blocking, or captured into a progress-engine task), an internal user
/// (comm_mgmt.cpp, win.cpp) or a composite algorithm — fills the raw MPI
/// arguments and the matching channel, and calls run_collective(). That one
/// dispatcher owns every per-op rule: the failure check, IN_PLACE
/// resolution, the selection size and commutativity, the allgather own-block
/// copy and the neighbor topology check. A persistent request runs the same
/// rules once at init (bind_collective()) and replays the captured CollCtx
/// on the captured algorithm. Algorithms send and receive only on
/// ctx.channel; blocking callers take theirs from blocking_channel(), the
/// only map from an op to its collective-context tag.
///
/// Every collective translation unit registers its algorithms here instead of
/// branching on thresholds inline; xmpi::tuning::select() (implemented in
/// coll_registry.cpp against this registry) is the only place selection
/// happens. Entries carry three predicates with distinct roles:
///
///   - applicable(): HARD correctness constraints (op commutativity,
///     power-of-two rank counts, hierarchy needing a node grouping). Never
///     overridden — not by the model, not by a tuning table, not by a force.
///   - preferred(): the static byte/rank thresholds of netmodel.hpp, used
///     when no model, table, or force decides. Each threshold constant is
///     referenced from exactly one preferred() so there is a single source
///     of truth per constant (a CI gate checks it).
///   - cost(): modeled alpha/beta seconds; when a network model is active
///     the applicable entry with the lowest modeled cost wins. Entries
///     without a cost model (the hierarchical variants — a uniform
///     alpha/beta model cannot see topology) simply never win this layer.
///
/// Registration order within one op is the preference order: the dispatcher
/// walks entries front to back, so more specialized algorithms (hierarchical,
/// then latency-optimal) register before the always-applicable fallback.
#pragma once

#include <cstddef>
#include <vector>

#include "coll.hpp"
#include "xmpi/datatype.hpp"
#include "xmpi/op.hpp"
#include "xmpi/tuning.hpp"

namespace xmpi::detail {

/// @brief Uniform argument record of one collective call, covering every
/// collective shape. Callers fill the fields their collective has (raw MPI
/// arguments: IN_PLACE as passed); run_collective()/bind_collective()
/// resolve IN_PLACE per op, and algorithms read only the fields their op
/// defines.
struct CollCtx {
    Comm* comm = nullptr;
    CollChannel channel{0, 0};
    void const* sendbuf = nullptr;
    void* recvbuf = nullptr;
    std::size_t sendcount = 0;
    std::size_t recvcount = 0;
    Datatype const* sendtype = nullptr;
    Datatype const* recvtype = nullptr;
    Op const* op = nullptr;
    int root = 0;
    bool in_place = false;  ///< set by the dispatcher when IN_PLACE was passed
    bool exclusive = false; ///< scan only (exscan semantics)
    ReduceScratch* scratch = nullptr; ///< optional hoisted scratch (persistent allreduce)
    /// @name v-variant arrays (alltoallv/w, neighbor)
    /// @{
    int const* sendcounts = nullptr;
    int const* sdispls = nullptr;
    int const* recvcounts = nullptr;
    int const* rdispls = nullptr;
    Datatype const* const* sendtypes = nullptr; ///< alltoallw only
    Datatype const* const* recvtypes = nullptr; ///< alltoallw only
    /// @}
};

/// @brief One registered collective algorithm.
struct CollAlgo {
    tuning::CollOp op;
    char const* name; ///< static storage; the name select()/tracing report
    /// Hard constraints; nullptr = always applicable.
    bool (*applicable)(tuning::SelectCtx const&);
    /// Static threshold preference; nullptr = always preferred (fallbacks).
    bool (*preferred)(tuning::SelectCtx const&);
    /// Modeled cost in seconds; nullptr = not modeled (skipped by the model
    /// layer).
    double (*cost)(tuning::SelectCtx const&);
    int (*run)(CollCtx&);
};

/// @brief The process-wide registry, populated on first use by the
/// register_*_algos() hooks below (explicit calls, not static registrar
/// objects: a static library may drop a TU nothing references).
[[nodiscard]] std::vector<CollAlgo> const& coll_registry();

/// @brief Runs one entry and notes its algorithm name for tracing. The note
/// happens AFTER the run so composite algorithms (reduce_scatter's inner
/// reduce + scatter, hierarchical phases) leave the *outermost* name in the
/// thread-local slot for the binding layer to take.
int run_coll_algo(CollAlgo const& algo, CollCtx& ctx);

/// @brief The one collective entry: failure check, the op's argument rules,
/// selection, run. @c ctx must carry the comm, the channel and the op's raw
/// arguments; it is resolved in place.
int run_collective(tuning::CollOp op, CollCtx& ctx);

/// @brief run_collective() on @c op's blocking channel: the form every
/// blocking caller (the XMPI entry points, comm_mgmt.cpp, win.cpp) uses.
int run_blocking(tuning::CollOp op, CollCtx ctx);

/// @brief The argument rules and selection of run_collective() without the
/// run: resolves @c ctx in place and returns the chosen entry (nullptr only
/// for an op without entries). Persistent requests call it once at init and
/// replay the result.
[[nodiscard]] CollAlgo const* bind_collective(tuning::CollOp op, CollCtx& ctx);

/// @brief The channel a blocking call of @c op runs on: the communicator's
/// collective context and the op's coll_tag.
[[nodiscard]] CollChannel blocking_channel(Comm const& comm, tuning::CollOp op);

/// @brief The channel of a composite algorithm's inner @c op: a blocking
/// call's phases keep their own kinds' blocking channels; a non-blocking or
/// persistent channel carries every phase.
[[nodiscard]] CollChannel inner_channel(CollCtx const& ctx, tuning::CollOp op);

/// @name Shared buffer helpers (hoisted from the collective TUs)
/// @{
/// @brief Local datatype conversion: packs (src, scount, stype) and unpacks
/// into (dst, up to rcount elements of rtype). The self-copy of rooted
/// collectives.
void local_copy(
    void const* src, std::size_t scount, Datatype const& stype, void* dst, std::size_t rcount,
    Datatype const& rtype);
[[nodiscard]] std::byte* displaced(void* base, std::ptrdiff_t elements, Datatype const& type);
[[nodiscard]] std::byte const*
displaced(void const* base, std::ptrdiff_t elements, Datatype const& type);
/// @}

/// @name Per-TU registration hooks (called once from coll_registry())
/// @{
void register_hier_algos(std::vector<CollAlgo>& registry);     // coll_hier.cpp
void register_basic_algos(std::vector<CollAlgo>& registry);    // coll_basic.cpp
void register_reduce_algos(std::vector<CollAlgo>& registry);   // coll_reduce.cpp
void register_gather_algos(std::vector<CollAlgo>& registry);   // coll_gather.cpp
void register_alltoall_algos(std::vector<CollAlgo>& registry); // coll_alltoall.cpp
/// @}

} // namespace xmpi::detail
