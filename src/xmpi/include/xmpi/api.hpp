/// @file api.hpp
/// @brief The flat XMPI_* function API — a faithful subset of the MPI C API.
///
/// This is the interface every binding layer in this repository (KaMPIng,
/// the Boost.MPI/MPL/RWTH mimics) and all "plain MPI" baseline code targets.
/// Signatures, argument order, and semantics mirror the MPI standard; names
/// carry an X prefix to make explicit that the transport is the in-process
/// xmpi substrate rather than a real MPI library.
///
/// All functions return an XMPI error class (XMPI_SUCCESS on success) and
/// never throw (except for usage outside a running world).
#pragma once

#include <cstddef>
#include <cstdint>

#include "xmpi/comm.hpp"
#include "xmpi/datatype.hpp"
#include "xmpi/error.hpp"
#include "xmpi/op.hpp"
#include "xmpi/request.hpp"
#include "xmpi/status.hpp"
#include "xmpi/win.hpp"
#include "xmpi/world.hpp"

/// @name Handle types
/// @{
using XMPI_Comm     = xmpi::Comm*;
using XMPI_Datatype = xmpi::Datatype*;
using XMPI_Group    = xmpi::Group*;
using XMPI_Op       = xmpi::Op const*;
using XMPI_Request  = xmpi::Request*;
using XMPI_Status   = xmpi::Status;
using XMPI_Aint     = std::ptrdiff_t;
using XMPI_Win      = xmpi::Win*;
/// @}

/// @name Null handles and special addresses
/// @{
inline constexpr XMPI_Comm XMPI_COMM_NULL         = nullptr;
inline constexpr XMPI_Request XMPI_REQUEST_NULL   = nullptr;
inline constexpr XMPI_Datatype XMPI_DATATYPE_NULL = nullptr;
inline constexpr XMPI_Group XMPI_GROUP_NULL       = nullptr;
inline constexpr XMPI_Win XMPI_WIN_NULL           = nullptr;
inline XMPI_Status* const XMPI_STATUS_IGNORE      = nullptr;
inline XMPI_Status* const XMPI_STATUSES_IGNORE    = nullptr;
inline void* const XMPI_IN_PLACE = xmpi::IN_PLACE;
/// @}

/// @name Wildcards
/// @{
inline constexpr int XMPI_ANY_SOURCE = xmpi::ANY_SOURCE;
inline constexpr int XMPI_ANY_TAG    = xmpi::ANY_TAG;
inline constexpr int XMPI_PROC_NULL  = xmpi::PROC_NULL;
inline constexpr int XMPI_UNDEFINED  = xmpi::UNDEFINED;
/// @}

/// @name Predefined datatypes
/// @{
XMPI_Datatype XMPI_BYTE_();
#define XMPI_BYTE (::XMPI_BYTE_())
XMPI_Datatype XMPI_CHAR_();
#define XMPI_CHAR (::XMPI_CHAR_())
XMPI_Datatype XMPI_SIGNED_CHAR_();
#define XMPI_SIGNED_CHAR (::XMPI_SIGNED_CHAR_())
XMPI_Datatype XMPI_UNSIGNED_CHAR_();
#define XMPI_UNSIGNED_CHAR (::XMPI_UNSIGNED_CHAR_())
XMPI_Datatype XMPI_SHORT_();
#define XMPI_SHORT (::XMPI_SHORT_())
XMPI_Datatype XMPI_UNSIGNED_SHORT_();
#define XMPI_UNSIGNED_SHORT (::XMPI_UNSIGNED_SHORT_())
XMPI_Datatype XMPI_INT_();
#define XMPI_INT (::XMPI_INT_())
XMPI_Datatype XMPI_UNSIGNED_();
#define XMPI_UNSIGNED (::XMPI_UNSIGNED_())
XMPI_Datatype XMPI_LONG_();
#define XMPI_LONG (::XMPI_LONG_())
XMPI_Datatype XMPI_UNSIGNED_LONG_();
#define XMPI_UNSIGNED_LONG (::XMPI_UNSIGNED_LONG_())
XMPI_Datatype XMPI_LONG_LONG_();
#define XMPI_LONG_LONG (::XMPI_LONG_LONG_())
XMPI_Datatype XMPI_UNSIGNED_LONG_LONG_();
#define XMPI_UNSIGNED_LONG_LONG (::XMPI_UNSIGNED_LONG_LONG_())
XMPI_Datatype XMPI_FLOAT_();
#define XMPI_FLOAT (::XMPI_FLOAT_())
XMPI_Datatype XMPI_DOUBLE_();
#define XMPI_DOUBLE (::XMPI_DOUBLE_())
XMPI_Datatype XMPI_LONG_DOUBLE_();
#define XMPI_LONG_DOUBLE (::XMPI_LONG_DOUBLE_())
XMPI_Datatype XMPI_CXX_BOOL_();
#define XMPI_CXX_BOOL (::XMPI_CXX_BOOL_())
/// @}

/// @name Predefined reduction operations
/// @{
XMPI_Op XMPI_SUM_();
#define XMPI_SUM (::XMPI_SUM_())
XMPI_Op XMPI_PROD_();
#define XMPI_PROD (::XMPI_PROD_())
XMPI_Op XMPI_MIN_();
#define XMPI_MIN (::XMPI_MIN_())
XMPI_Op XMPI_MAX_();
#define XMPI_MAX (::XMPI_MAX_())
XMPI_Op XMPI_LAND_();
#define XMPI_LAND (::XMPI_LAND_())
XMPI_Op XMPI_LOR_();
#define XMPI_LOR (::XMPI_LOR_())
XMPI_Op XMPI_LXOR_();
#define XMPI_LXOR (::XMPI_LXOR_())
XMPI_Op XMPI_BAND_();
#define XMPI_BAND (::XMPI_BAND_())
XMPI_Op XMPI_BOR_();
#define XMPI_BOR (::XMPI_BOR_())
XMPI_Op XMPI_BXOR_();
#define XMPI_BXOR (::XMPI_BXOR_())
inline constexpr XMPI_Op XMPI_OP_NULL = nullptr;
/// @}

/// @name Environment
/// @{
int XMPI_Comm_size(XMPI_Comm comm, int* size);
int XMPI_Comm_rank(XMPI_Comm comm, int* rank);
double XMPI_Wtime();
int XMPI_Abort(XMPI_Comm comm, int errorcode);
int XMPI_Error_string(int errorcode, char* string, int* resultlen);
/// @}

/// @name Point-to-point
/// @{
int XMPI_Send(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm);
int XMPI_Ssend(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm);
int XMPI_Isend(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Issend(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Recv(
    void* buf, int count, XMPI_Datatype datatype, int source, int tag, XMPI_Comm comm,
    XMPI_Status* status);
int XMPI_Irecv(
    void* buf, int count, XMPI_Datatype datatype, int source, int tag, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Sendrecv(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, int dest, int sendtag,
    void* recvbuf, int recvcount, XMPI_Datatype recvtype, int source, int recvtag, XMPI_Comm comm,
    XMPI_Status* status);
int XMPI_Probe(int source, int tag, XMPI_Comm comm, XMPI_Status* status);
int XMPI_Iprobe(int source, int tag, XMPI_Comm comm, int* flag, XMPI_Status* status);
int XMPI_Get_count(XMPI_Status const* status, XMPI_Datatype datatype, int* count);
/// @}

/// @name Request completion
/// @{
int XMPI_Wait(XMPI_Request* request, XMPI_Status* status);
int XMPI_Test(XMPI_Request* request, int* flag, XMPI_Status* status);
/// @brief Waits for all requests. Returns the first per-request error code
/// encountered (statuses carry every code individually).
int XMPI_Waitall(int count, XMPI_Request* requests, XMPI_Status* statuses);
/// @brief All-or-nothing test: either every request is complete (all are
/// consumed, @c flag = 1) or none is modified (@c flag = 0). When a consumed
/// request failed, returns XMPI_ERR_IN_STATUS (real codes in @c statuses),
/// or the first error code when @c statuses is XMPI_STATUSES_IGNORE.
int XMPI_Testall(int count, XMPI_Request* requests, int* flag, XMPI_Status* statuses);
int XMPI_Waitany(int count, XMPI_Request* requests, int* index, XMPI_Status* status);
/// @brief Waits until at least one request completes; consumes every request
/// found complete. Error convention as in XMPI_Testall.
int XMPI_Waitsome(
    int incount, XMPI_Request* requests, int* outcount, int* indices, XMPI_Status* statuses);
int XMPI_Testany(int count, XMPI_Request* requests, int* index, int* flag, XMPI_Status* status);
int XMPI_Testsome(
    int incount, XMPI_Request* requests, int* outcount, int* indices, XMPI_Status* statuses);
int XMPI_Cancel(XMPI_Request* request);
int XMPI_Request_free(XMPI_Request* request);
/// @}

/// @name Persistent and partitioned communication (MPI-4 Send_init/Start
/// family). An *_init call binds the operation's arguments into an inactive
/// persistent request without communicating; every XMPI_Start replays the
/// operation (completion returns the request to inactive instead of freeing
/// it). Wait/Test on an inactive persistent request return immediately with
/// an empty status. XMPI_Request_free destroys the request; if it is active,
/// the call blocks until the in-flight instance completes.
///
/// Partitioned sends (XMPI_Psend_init) split the buffer into @c partitions
/// equal parts of @c count elements each; any thread may mark partitions
/// ready with XMPI_Pready once started, and once the last partition is
/// ready the owning rank's next library call ships the whole buffer as a
/// single message. XMPI_Parrived reports arrival on
/// the receive side at whole-message granularity.
/// @{
int XMPI_Start(XMPI_Request* request);
int XMPI_Startall(int count, XMPI_Request* requests);
int XMPI_Send_init(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Recv_init(
    void* buf, int count, XMPI_Datatype datatype, int source, int tag, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Bcast_init(
    void* buffer, int count, XMPI_Datatype datatype, int root, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Allreduce_init(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm, XMPI_Request* request);
int XMPI_Alltoall_init(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm, XMPI_Request* request);
int XMPI_Barrier_init(XMPI_Comm comm, XMPI_Request* request);
int XMPI_Psend_init(
    void const* buf, int partitions, int count, XMPI_Datatype datatype, int dest, int tag,
    XMPI_Comm comm, XMPI_Request* request);
int XMPI_Precv_init(
    void* buf, int partitions, int count, XMPI_Datatype datatype, int source, int tag,
    XMPI_Comm comm, XMPI_Request* request);
int XMPI_Pready(int partition, XMPI_Request request);
int XMPI_Parrived(XMPI_Request request, int partition, int* flag);
/// @}

/// @name Collectives
/// @{
int XMPI_Barrier(XMPI_Comm comm);
int XMPI_Ibarrier(XMPI_Comm comm, XMPI_Request* request);
int XMPI_Bcast(void* buffer, int count, XMPI_Datatype datatype, int root, XMPI_Comm comm);
int XMPI_Gather(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, int root, XMPI_Comm comm);
int XMPI_Gatherv(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf,
    int const* recvcounts, int const* displs, XMPI_Datatype recvtype, int root, XMPI_Comm comm);
int XMPI_Scatter(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, int root, XMPI_Comm comm);
int XMPI_Scatterv(
    void const* sendbuf, int const* sendcounts, int const* displs, XMPI_Datatype sendtype,
    void* recvbuf, int recvcount, XMPI_Datatype recvtype, int root, XMPI_Comm comm);
int XMPI_Allgather(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm);
int XMPI_Allgatherv(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf,
    int const* recvcounts, int const* displs, XMPI_Datatype recvtype, XMPI_Comm comm);
int XMPI_Alltoall(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm);
int XMPI_Alltoallv(
    void const* sendbuf, int const* sendcounts, int const* sdispls, XMPI_Datatype sendtype,
    void* recvbuf, int const* recvcounts, int const* rdispls, XMPI_Datatype recvtype,
    XMPI_Comm comm);
int XMPI_Alltoallw(
    void const* sendbuf, int const* sendcounts, int const* sdispls,
    XMPI_Datatype const* sendtypes, void* recvbuf, int const* recvcounts, int const* rdispls,
    XMPI_Datatype const* recvtypes, XMPI_Comm comm);
/// @name Non-blocking collectives. They must be initiated in the same order
/// on all ranks (MPI semantics); several may be in flight per communicator.
/// Buffers must stay valid and untouched until completion.
/// @{
int XMPI_Ibcast(
    void* buffer, int count, XMPI_Datatype datatype, int root, XMPI_Comm comm,
    XMPI_Request* request);
int XMPI_Iallreduce(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm, XMPI_Request* request);
int XMPI_Ialltoallv(
    void const* sendbuf, int const* sendcounts, int const* sdispls, XMPI_Datatype sendtype,
    void* recvbuf, int const* recvcounts, int const* rdispls, XMPI_Datatype recvtype,
    XMPI_Comm comm, XMPI_Request* request);
/// @}

int XMPI_Reduce(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op, int root,
    XMPI_Comm comm);
int XMPI_Allreduce(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm);
int XMPI_Reduce_scatter_block(
    void const* sendbuf, void* recvbuf, int recvcount, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm);
int XMPI_Scan(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm);
int XMPI_Exscan(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm);
/// @}

/// @name Datatype construction
/// @{
int XMPI_Type_contiguous(int count, XMPI_Datatype oldtype, XMPI_Datatype* newtype);
int XMPI_Type_vector(
    int count, int blocklength, int stride, XMPI_Datatype oldtype, XMPI_Datatype* newtype);
int XMPI_Type_indexed(
    int count, int const* blocklengths, int const* displacements, XMPI_Datatype oldtype,
    XMPI_Datatype* newtype);
int XMPI_Type_create_struct(
    int count, int const* blocklengths, XMPI_Aint const* displacements,
    XMPI_Datatype const* types, XMPI_Datatype* newtype);
int XMPI_Type_create_resized(
    XMPI_Datatype oldtype, XMPI_Aint lb, XMPI_Aint extent, XMPI_Datatype* newtype);
int XMPI_Type_commit(XMPI_Datatype* datatype);
int XMPI_Type_free(XMPI_Datatype* datatype);
int XMPI_Type_size(XMPI_Datatype datatype, int* size);
int XMPI_Type_get_extent(XMPI_Datatype datatype, XMPI_Aint* lb, XMPI_Aint* extent);
/// @}

/// @name Reduction operations
/// @{
int XMPI_Op_create(xmpi::UserFunction function, int commute, XMPI_Op* op);
int XMPI_Op_free(XMPI_Op* op);
/// @}

/// @name Groups and communicator management
/// @{
int XMPI_Comm_group(XMPI_Comm comm, XMPI_Group* group);
int XMPI_Group_size(XMPI_Group group, int* size);
int XMPI_Group_rank(XMPI_Group group, int* rank);
int XMPI_Group_incl(XMPI_Group group, int n, int const* ranks, XMPI_Group* newgroup);
int XMPI_Group_excl(XMPI_Group group, int n, int const* ranks, XMPI_Group* newgroup);
int XMPI_Group_union(XMPI_Group group1, XMPI_Group group2, XMPI_Group* newgroup);
int XMPI_Group_intersection(XMPI_Group group1, XMPI_Group group2, XMPI_Group* newgroup);
int XMPI_Group_difference(XMPI_Group group1, XMPI_Group group2, XMPI_Group* newgroup);
int XMPI_Group_translate_ranks(
    XMPI_Group group1, int n, int const* ranks1, XMPI_Group group2, int* ranks2);
int XMPI_Group_free(XMPI_Group* group);
int XMPI_Comm_dup(XMPI_Comm comm, XMPI_Comm* newcomm);
int XMPI_Comm_split(XMPI_Comm comm, int color, int key, XMPI_Comm* newcomm);
int XMPI_Comm_create(XMPI_Comm comm, XMPI_Group group, XMPI_Comm* newcomm);
int XMPI_Comm_free(XMPI_Comm* comm);
/// @}

/// @name Sparse graph topologies and neighborhood collectives
/// @{
int XMPI_Dist_graph_create_adjacent(
    XMPI_Comm comm_old, int indegree, int const* sources, int const* sourceweights, int outdegree,
    int const* destinations, int const* destweights, int reorder, XMPI_Comm* comm_dist_graph);
int XMPI_Dist_graph_neighbors_count(XMPI_Comm comm, int* indegree, int* outdegree, int* weighted);
int XMPI_Neighbor_alltoall(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm);
int XMPI_Neighbor_alltoallv(
    void const* sendbuf, int const* sendcounts, int const* sdispls, XMPI_Datatype sendtype,
    void* recvbuf, int const* recvcounts, int const* rdispls, XMPI_Datatype recvtype,
    XMPI_Comm comm);
/// @}

/// @name User-level failure mitigation (ULFM, MPI 5.0 proposal)
/// @{
int XMPI_Comm_revoke(XMPI_Comm comm);
int XMPI_Comm_is_revoked(XMPI_Comm comm, int* flag);
int XMPI_Comm_shrink(XMPI_Comm comm, XMPI_Comm* newcomm);
int XMPI_Comm_agree(XMPI_Comm comm, int* flag);
/// @}

/// @name Elastic worlds (sessions-style dynamic membership, elastic.hpp)
///
/// Joining happens at the World level (World::open_session attaches a brand
/// new thread, which a handle-based C API cannot express); everything an
/// *attached* rank needs rides on handles and the thread-local context.
/// @{
/// @brief Retires the calling rank from its (elastic) world: announces the
/// leave, participates in the excluding membership transition, and detaches
/// the calling thread.
int XMPI_Session_leave(void);
/// @brief Membership-epoch rendezvous: stores a *retained* handle to the
/// current epoch's communicator in @c newcomm (release with XMPI_Comm_free),
/// first running a transition if joins, leaves, or failures are pending.
int XMPI_Epoch_sync(XMPI_Comm* newcomm);
/// @brief The membership epoch of the communicator's world (0 until the
/// first transition; constant 0 in non-elastic worlds).
int XMPI_Membership_epoch(XMPI_Comm comm, std::uint64_t* epoch);
/// @brief Sets @c flag iff @c comm belongs to a superseded epoch or a
/// membership transition is pending — i.e. the caller should XMPI_Epoch_sync
/// (operations on @c comm would fail with XMPI_ERR_EPOCH / XMPI_ERR_REVOKED).
int XMPI_Membership_changed(XMPI_Comm comm, int* flag);
/// @}

/// @name One-sided communication (RMA)
/// @{
/// @brief Passive-target lock types (MPI_LOCK_*).
inline constexpr int XMPI_LOCK_SHARED    = xmpi::LOCK_SHARED;
inline constexpr int XMPI_LOCK_EXCLUSIVE = xmpi::LOCK_EXCLUSIVE;

/// @brief Collective: exposes @c size bytes starting at @c base over @c comm.
/// Displacements passed to the access functions are scaled by @c disp_unit.
int XMPI_Win_create(
    void* base, XMPI_Aint size, int disp_unit, XMPI_Comm comm, XMPI_Win* win);
/// @brief Collective: like XMPI_Win_create, but the library allocates each
/// rank's zero-initialized region and owns it for the window's whole
/// lifetime — the region is freed only when the *last* member (or survivor)
/// drops its window reference. Prefer this over exposing scope-local storage
/// whenever the communicator can lose members mid-epoch: a peer's in-flight
/// atomic can never dangle on stack memory that unwound with a kill.
/// @c baseptr receives this rank's region (as void*, MPI-style).
int XMPI_Win_allocate(
    XMPI_Aint size, int disp_unit, XMPI_Comm comm, void* baseptr, XMPI_Win* win);
/// @brief Collective: destroys the window (barrier, then drop reference).
int XMPI_Win_free(XMPI_Win* win);

/// @brief Queues a put; applied at the next synchronization call. A put with
/// a contiguous origin datatype is zero-copy: the origin buffer must remain
/// valid (and unmodified) until the epoch closes.
int XMPI_Put(
    void const* origin_addr, int origin_count, XMPI_Datatype origin_datatype, int target_rank,
    XMPI_Aint target_disp, int target_count, XMPI_Datatype target_datatype, XMPI_Win win);
/// @brief Queues a get; the origin buffer is filled at the next
/// synchronization call and must stay valid until then.
int XMPI_Get(
    void* origin_addr, int origin_count, XMPI_Datatype origin_datatype, int target_rank,
    XMPI_Aint target_disp, int target_count, XMPI_Datatype target_datatype, XMPI_Win win);
/// @brief Element-wise atomic read-modify-write into the target region.
/// Applied eagerly (not queued); requires contiguous datatypes.
int XMPI_Accumulate(
    void const* origin_addr, int origin_count, XMPI_Datatype origin_datatype, int target_rank,
    XMPI_Aint target_disp, int target_count, XMPI_Datatype target_datatype, XMPI_Op op,
    XMPI_Win win);
/// @brief Atomic fetch-and-op of one element: fetches the target element
/// into @c result_addr, then applies `target = op(origin, target)`. Applied
/// eagerly — the fetched value is valid on return (MPI_Fetch_and_op plus the
/// flush the standard requires, collapsed to the in-process essence).
/// Requires a contiguous datatype. An epoch towards @c target_rank must be
/// open (fence, or a lock on the target).
int XMPI_Fetch_and_op(
    void const* origin_addr, void* result_addr, XMPI_Datatype datatype, int target_rank,
    XMPI_Aint target_disp, XMPI_Op op, XMPI_Win win);
/// @brief Atomic compare-and-swap of one element: fetches the target element
/// into @c result_addr and, iff it byte-wise equals @c compare_addr, stores
/// @c origin_addr. Eager like XMPI_Fetch_and_op; the swap succeeded iff the
/// fetched value equals the compare value. Requires a contiguous datatype.
int XMPI_Compare_and_swap(
    void const* origin_addr, void const* compare_addr, void* result_addr,
    XMPI_Datatype datatype, int target_rank, XMPI_Aint target_disp, XMPI_Win win);

/// @brief Active-target synchronization: drains the calling rank's pending
/// ops and barriers over the window's communicator. With failed ranks the
/// fence returns XMPI_ERR_PROC_FAILED instead of hanging. The @c assertion
/// argument is accepted for MPI fidelity and ignored.
int XMPI_Win_fence(int assertion, XMPI_Win win);
/// @brief Passive-target: opens an access epoch towards @c rank. The
/// @c assertion argument is accepted for MPI fidelity and ignored.
int XMPI_Win_lock(int lock_type, int rank, int assertion, XMPI_Win win);
/// @brief Closes a passive-target epoch: drains pending ops towards @c rank,
/// then releases the lock.
int XMPI_Win_unlock(int rank, XMPI_Win win);
/// @}
