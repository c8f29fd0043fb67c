/// @file persistent.hpp
/// @brief Internal factories and classes of the persistent / partitioned
/// request family (XMPI_Send_init, XMPI_Psend_init, ...). Not installed;
/// xmpi-internal only. The lifecycle base class lives in xmpi/request.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>

#include "coll_registry.hpp"
#include "xmpi/comm.hpp"
#include "xmpi/datatype.hpp"
#include "xmpi/op.hpp"
#include "xmpi/request.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

/// @name Persistent point-to-point and collective factories. Each stores the
/// argument pack (and any derived shape: counts, displacements, payload
/// reservation) exactly once; every XMPI_Start replays the operation without
/// re-deriving anything.
/// @{
Request* make_persistent_send(
    Comm& comm, void const* buf, std::size_t count, Datatype const& type, int dest, int tag);
Request* make_persistent_recv(
    Comm& comm, void* buf, std::size_t count, Datatype const& type, int source, int tag);
/// @brief XMPI_<Op>_init of a registry collective: captures @c ctx (filled
/// as for run_collective(), channel excepted — the plan draws its own)
/// together with the algorithm selected now.
Request* make_persistent_collective(char const* name, tuning::CollOp op, CollCtx const& ctx);
/// @brief XMPI_Alltoall_init: @c ctx filled as for an alltoall; the plan
/// replays it as an alltoallv with a shape derived once.
Request* make_persistent_alltoall(CollCtx const& ctx);
/// @}

/// @brief Partitioned send (XMPI_Psend_init): the buffer is @c partitions
/// equal parts of @c part_count elements each. Producer threads mark
/// partitions ready via pready(); the LAST pready ships the whole buffer as
/// one message through the progress engine on behalf of the initiating rank,
/// so many producer threads compose into a single transport message.
class PartitionedSendRequest final : public PersistentRequest {
public:
    PartitionedSendRequest(
        Comm* comm, int partitions, std::size_t part_count, Datatype const* type,
        void const* buf, int dest, int tag);

    /// @brief Marks one partition ready. Callable from any thread once the
    /// request is started. XMPI_ERR_REQUEST when not started, XMPI_ERR_ARG
    /// on an out-of-range or already-ready partition.
    int pready(int partition);

    bool test(Status& status) override;
    [[nodiscard]] bool peek() override;
    void wait(Status& status) override;
    bool cancel() override { return false; }

protected:
    int do_start() override;

private:
    Comm* comm_;
    int partitions_;
    std::size_t part_count_;
    Datatype const* type_;
    void const* buf_;
    int dest_;
    int tag_;
    /// Initiating rank; the final pready may come from a producer thread
    /// with no rank identity, so the send task is attributed explicitly.
    RankContext ctx_;
    std::unique_ptr<std::atomic<bool>[]> ready_;
    std::atomic<int> ready_count_{0};
    std::atomic<bool> started_{false};
    std::mutex inner_mutex_; ///< guards inner_ (installed by a foreign thread)
};

/// @brief Partitioned receive (XMPI_Precv_init). Arrival granularity is the
/// whole message: parrived() reports all partitions together, without
/// consuming the completion (that stays with Wait/Test).
class PartitionedRecvRequest final : public PersistentRequest {
public:
    PartitionedRecvRequest(
        Comm* comm, int partitions, std::size_t part_count, Datatype const* type, void* buf,
        int source, int tag);

    int parrived(int partition, int* flag);

protected:
    int do_start() override;

private:
    Comm* comm_;
    int partitions_;
    std::size_t part_count_;
    Datatype const* type_;
    void* buf_;
    int source_;
    int tag_;
};

} // namespace xmpi::detail
