#include "xmpi/request.hpp"

#include "xmpi/comm.hpp"
#include "xmpi/error.hpp"
#include "xmpi/mailbox.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {
namespace {

/// True iff a revocation or a member failure aborts waits on @c comm.
bool comm_aborted(Comm const* comm) {
    return comm != nullptr && (comm->revoked() || comm->any_member_failed());
}

/// Completion status: success, or the error class of the abort.
Status outcome(bool completed, Comm const* comm) {
    if (completed) {
        return Status{UNDEFINED, UNDEFINED, XMPI_SUCCESS, 0};
    }
    return Status{
        UNDEFINED, UNDEFINED, comm->revoked() ? XMPI_ERR_REVOKED : XMPI_ERR_PROC_FAILED, 0};
}

bool round_completed(Comm& comm, std::uint64_t round) {
    auto& sync = comm.ibarrier_sync();
    std::lock_guard lock(sync.mutex);
    return sync.completed_rounds > round;
}

} // namespace

bool SyncRequest::test(Status& status) {
    bool const matched = handle_->matched.load(std::memory_order_acquire);
    if (!matched && !comm_aborted(comm_)) {
        return false;
    }
    status = outcome(matched, comm_);
    return true;
}

void SyncRequest::wait(Status& status) {
    handle_->sender->wait_until(
        [&] { return handle_->matched.load(std::memory_order_acquire) || comm_aborted(comm_); });
    status = outcome(handle_->matched.load(std::memory_order_acquire), comm_);
}

bool RecvRequest::test(Status& status) {
    if (mailbox_->is_complete(ticket_)) {
        status = ticket_->status;
        return true;
    }
    if (check_failed(status)) {
        return true;
    }
    return false;
}

bool RecvRequest::check_failed(Status& status) {
    Comm const& comm = *ticket_->comm;
    // Collective-context receives relay for the whole membership, so any
    // member's death aborts them (see transport_recv); exact-source pt2pt
    // receives only care about their own peer.
    bool const watch_all = ticket_->pattern.source == ANY_SOURCE
                           || ticket_->pattern.context == comm.collective_context();
    bool const aborted =
        comm.revoked()
        || (watch_all
                ? comm.any_member_failed()
                : comm.world().is_failed(comm.world_rank_of(ticket_->pattern.source)));
    if (!aborted) {
        return false;
    }
    if (!mailbox_->cancel(ticket_)) {
        // Completed concurrently after all; report the real status.
        status = ticket_->status;
        return true;
    }
    status = outcome(false, &comm);
    ticket_->status = status;
    ticket_->complete = true;
    return true;
}

void RecvRequest::wait(Status& status) {
    auto const aborted = [&] {
        Comm const& comm = *ticket_->comm;
        if (comm.revoked()) {
            return true;
        }
        if (ticket_->pattern.source == ANY_SOURCE) {
            return comm.any_member_failed();
        }
        return comm.world().is_failed(comm.world_rank_of(ticket_->pattern.source));
    };
    if (mailbox_->await(ticket_, aborted)) {
        status = ticket_->status;
        return;
    }
    status = outcome(false, ticket_->comm);
}

bool RecvRequest::cancel() {
    return mailbox_->cancel(ticket_);
}

bool IbarrierRequest::test(Status& status) {
    bool const completed = round_completed(*comm_, round_);
    if (!completed && !comm_aborted(comm_)) {
        return false;
    }
    status = outcome(completed, comm_);
    return true;
}

void IbarrierRequest::wait(Status& status) {
    waiter_->wait_until([&] { return round_completed(*comm_, round_) || comm_aborted(comm_); });
    status = outcome(round_completed(*comm_, round_), comm_);
}

} // namespace xmpi::detail
