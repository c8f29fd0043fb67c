/// @file api.cpp
/// @brief The flat XMPI_* entry points: argument validation, profiling
/// counters, and dispatch into the internal implementation.
#include "xmpi/api.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "coll.hpp"
#include "coll_registry.hpp"
#include "persistent.hpp"
#include "transport.hpp"
#include "xmpi/chaos.hpp"
#include "xmpi/progress.hpp"
#include "xmpi/ring.hpp"

namespace {

using xmpi::BuiltinOp;
using xmpi::BuiltinType;
using xmpi::detail::CollCtx;
using xmpi::detail::run_blocking;
using xmpi::tuning::CollOp;

void count_call(xmpi::profile::Call call) {
    auto& context = xmpi::detail::current_context();
    if (context.world != nullptr) {
        auto const count = context.world->counters(context.world_rank)
                               .calls[static_cast<std::size_t>(call)]
                               .fetch_add(1, std::memory_order_relaxed)
                           + 1;
        // Fault injection rides on the same counter: when a chaos plan is
        // armed, the per-rank call count is the reproducible injection point.
        if (auto* engine = context.world->chaos_engine(); engine != nullptr) {
            if (engine->on_call(context.world_rank, call,
                                static_cast<std::uint64_t>(count))) {
                context.world->kill_current_rank(); // throws RankKilled
            }
        }
    }
}

/// XMPI_ERR_OP for a null op or one that cannot reduce @p datatype (a
/// bitwise op on a float or bool block). Every entry point that takes an op
/// calls this before any message moves, so all ranks return the same code.
int check_op(XMPI_Op op, XMPI_Datatype datatype) {
    return op != XMPI_OP_NULL && op->accepts(*datatype) ? XMPI_SUCCESS : XMPI_ERR_OP;
}

xmpi::Status empty_status() {
    return xmpi::Status{XMPI_PROC_NULL, XMPI_ANY_TAG, XMPI_SUCCESS, 0};
}

/// Disposes one completed request handle: persistent requests go inactive
/// and keep their handle (freed only by XMPI_Request_free); one-shot
/// requests are consumed — deleted and nulled.
void consume_completed(XMPI_Request* request) {
    if ((*request)->persistent()) {
        return;
    }
    delete *request;
    *request = XMPI_REQUEST_NULL;
}

/// A request the array completion functions must poll: non-null and active
/// (an inactive persistent request participates like a null handle).
bool is_pollable(XMPI_Request request) {
    return request != XMPI_REQUEST_NULL && request->active();
}

/// Runs @c sweep until it returns true, blocking on the calling rank's
/// Waiter: every event that can complete one of its requests (delivery,
/// match, engine completion, round completion, failure) notifies it.
/// progress::poll() keeps the rank's own engine tasks moving while it waits.
template <typename Sweep>
void wait_ladder(Sweep&& sweep) {
    auto const& context = xmpi::detail::current_context();
    if (context.world == nullptr) {
        // Threads outside a world (helpers polling a handed-off request)
        // have no Waiter that events notify.
        while (!sweep()) {
            std::this_thread::yield();
        }
        return;
    }
    context.world->waiter(context.world_rank).wait_until([&] {
        return sweep() || (xmpi::progress::poll() && sweep());
    });
}

/// A count argument as the CollCtx field it fills.
std::size_t ucount(int count) {
    return static_cast<std::size_t>(count);
}

/// Starts one non-blocking registry collective: the collective runs as a
/// task on the shared progress engine, on a dedicated matching channel (nbc
/// context + per-initiation sequence tag) and under the initiating rank's
/// context, so matching and profiling attribute correctly no matter which
/// thread executes it.
xmpi::Request* start_nonblocking(char const* name, CollOp op, CollCtx ctx) {
    ctx.channel = {ctx.comm->nbc_context(), ctx.comm->next_nbc_sequence()};
    return xmpi::progress::detail::submit(
        name, ctx.comm, [op, ctx]() mutable { return xmpi::detail::run_collective(op, ctx); });
}

} // namespace

/// @name Predefined handles
/// @{
XMPI_Datatype XMPI_BYTE_() {
    return xmpi::predefined_type(BuiltinType::byte_);
}
XMPI_Datatype XMPI_CHAR_() {
    return xmpi::predefined_type(BuiltinType::char_);
}
XMPI_Datatype XMPI_SIGNED_CHAR_() {
    return xmpi::predefined_type(BuiltinType::signed_char);
}
XMPI_Datatype XMPI_UNSIGNED_CHAR_() {
    return xmpi::predefined_type(BuiltinType::unsigned_char);
}
XMPI_Datatype XMPI_SHORT_() {
    return xmpi::predefined_type(BuiltinType::short_);
}
XMPI_Datatype XMPI_UNSIGNED_SHORT_() {
    return xmpi::predefined_type(BuiltinType::unsigned_short);
}
XMPI_Datatype XMPI_INT_() {
    return xmpi::predefined_type(BuiltinType::int_);
}
XMPI_Datatype XMPI_UNSIGNED_() {
    return xmpi::predefined_type(BuiltinType::unsigned_int);
}
XMPI_Datatype XMPI_LONG_() {
    return xmpi::predefined_type(BuiltinType::long_);
}
XMPI_Datatype XMPI_UNSIGNED_LONG_() {
    return xmpi::predefined_type(BuiltinType::unsigned_long);
}
XMPI_Datatype XMPI_LONG_LONG_() {
    return xmpi::predefined_type(BuiltinType::long_long);
}
XMPI_Datatype XMPI_UNSIGNED_LONG_LONG_() {
    return xmpi::predefined_type(BuiltinType::unsigned_long_long);
}
XMPI_Datatype XMPI_FLOAT_() {
    return xmpi::predefined_type(BuiltinType::float_);
}
XMPI_Datatype XMPI_DOUBLE_() {
    return xmpi::predefined_type(BuiltinType::double_);
}
XMPI_Datatype XMPI_LONG_DOUBLE_() {
    return xmpi::predefined_type(BuiltinType::long_double);
}
XMPI_Datatype XMPI_CXX_BOOL_() {
    return xmpi::predefined_type(BuiltinType::bool_);
}
XMPI_Op XMPI_SUM_() {
    return xmpi::predefined_op(BuiltinOp::sum);
}
XMPI_Op XMPI_PROD_() {
    return xmpi::predefined_op(BuiltinOp::prod);
}
XMPI_Op XMPI_MIN_() {
    return xmpi::predefined_op(BuiltinOp::min);
}
XMPI_Op XMPI_MAX_() {
    return xmpi::predefined_op(BuiltinOp::max);
}
XMPI_Op XMPI_LAND_() {
    return xmpi::predefined_op(BuiltinOp::land);
}
XMPI_Op XMPI_LOR_() {
    return xmpi::predefined_op(BuiltinOp::lor);
}
XMPI_Op XMPI_LXOR_() {
    return xmpi::predefined_op(BuiltinOp::lxor);
}
XMPI_Op XMPI_BAND_() {
    return xmpi::predefined_op(BuiltinOp::band);
}
XMPI_Op XMPI_BOR_() {
    return xmpi::predefined_op(BuiltinOp::bor);
}
XMPI_Op XMPI_BXOR_() {
    return xmpi::predefined_op(BuiltinOp::bxor);
}
/// @}

/// @name Environment
/// @{
int XMPI_Comm_size(XMPI_Comm comm, int* size) {
    *size = comm->size();
    return XMPI_SUCCESS;
}

int XMPI_Comm_rank(XMPI_Comm comm, int* rank) {
    *rank = comm->rank();
    return XMPI_SUCCESS;
}

double XMPI_Wtime() {
    return xmpi::wtime();
}

int XMPI_Abort(XMPI_Comm, int errorcode) {
    std::fprintf(stderr, "XMPI_Abort with error code %d\n", errorcode);
    std::abort();
}

int XMPI_Error_string(int errorcode, char* string, int* resultlen) {
    char const* text = xmpi::error_string(errorcode);
    std::size_t const length = std::strlen(text);
    std::memcpy(string, text, length + 1);
    *resultlen = static_cast<int>(length);
    return XMPI_SUCCESS;
}
/// @}

/// @name Point-to-point
/// @{
int XMPI_Send(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::send);
    return xmpi::detail::transport_send(
        *comm, dest, tag, comm->pt2pt_context(), buf, static_cast<std::size_t>(count), *datatype);
}

int XMPI_Ssend(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::ssend);
    auto sync = std::make_shared<xmpi::detail::SyncHandle>(
        comm->world().waiter(xmpi::detail::current_world_rank()));
    if (int const err = xmpi::detail::transport_send(
            *comm, dest, tag, comm->pt2pt_context(), buf, static_cast<std::size_t>(count),
            *datatype, sync);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (dest == XMPI_PROC_NULL) {
        return XMPI_SUCCESS;
    }
    xmpi::detail::SyncRequest request(std::move(sync), comm);
    xmpi::Status status;
    request.wait(status);
    return status.error;
}

int XMPI_Isend(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::isend);
    int const err = xmpi::detail::transport_send(
        *comm, dest, tag, comm->pt2pt_context(), buf, static_cast<std::size_t>(count), *datatype);
    if (err != XMPI_SUCCESS) {
        return err;
    }
    *request = new xmpi::detail::CompletedRequest(
        xmpi::Status{XMPI_UNDEFINED, XMPI_UNDEFINED, XMPI_SUCCESS, 0});
    return XMPI_SUCCESS;
}

int XMPI_Issend(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::issend);
    auto sync = std::make_shared<xmpi::detail::SyncHandle>(
        comm->world().waiter(xmpi::detail::current_world_rank()));
    int const err = xmpi::detail::transport_send(
        *comm, dest, tag, comm->pt2pt_context(), buf, static_cast<std::size_t>(count), *datatype,
        sync);
    if (err != XMPI_SUCCESS) {
        return err;
    }
    if (dest == XMPI_PROC_NULL) {
        *request = new xmpi::detail::CompletedRequest(
            xmpi::Status{XMPI_UNDEFINED, XMPI_UNDEFINED, XMPI_SUCCESS, 0});
    } else {
        *request = new xmpi::detail::SyncRequest(std::move(sync), comm);
    }
    return XMPI_SUCCESS;
}

int XMPI_Recv(
    void* buf, int count, XMPI_Datatype datatype, int source, int tag, XMPI_Comm comm,
    XMPI_Status* status) {
    count_call(xmpi::profile::Call::recv);
    return xmpi::detail::transport_recv(
        *comm, source, tag, comm->pt2pt_context(), buf, static_cast<std::size_t>(count),
        *datatype, status);
}

int XMPI_Irecv(
    void* buf, int count, XMPI_Datatype datatype, int source, int tag, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::irecv);
    return xmpi::detail::transport_irecv(
        *comm, source, tag, comm->pt2pt_context(), buf, static_cast<std::size_t>(count),
        *datatype, request);
}

int XMPI_Sendrecv(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, int dest, int sendtag,
    void* recvbuf, int recvcount, XMPI_Datatype recvtype, int source, int recvtag, XMPI_Comm comm,
    XMPI_Status* status) {
    count_call(xmpi::profile::Call::sendrecv);
    XMPI_Request recv_request = XMPI_REQUEST_NULL;
    if (int const recv_err = xmpi::detail::transport_irecv(
            *comm, source, recvtag, comm->pt2pt_context(), recvbuf,
            static_cast<std::size_t>(recvcount), *recvtype, &recv_request);
        recv_err != XMPI_SUCCESS) {
        return recv_err;
    }
    int const send_err = xmpi::detail::transport_send(
        *comm, dest, sendtag, comm->pt2pt_context(), sendbuf,
        static_cast<std::size_t>(sendcount), *sendtype);
    xmpi::Status recv_status;
    recv_request->wait(recv_status);
    delete recv_request;
    if (status != XMPI_STATUS_IGNORE) {
        *status = recv_status;
    }
    return send_err != XMPI_SUCCESS ? send_err : recv_status.error;
}

int XMPI_Probe(int source, int tag, XMPI_Comm comm, XMPI_Status* status) {
    count_call(xmpi::profile::Call::probe);
    // PROC_NULL and out-of-range sources must be handled before building the
    // match pattern: check_peer would index the member table with them.
    if (source == XMPI_PROC_NULL) {
        if (status != XMPI_STATUS_IGNORE) {
            *status = xmpi::Status{XMPI_PROC_NULL, XMPI_ANY_TAG, XMPI_SUCCESS, 0};
        }
        return XMPI_SUCCESS;
    }
    if (source != XMPI_ANY_SOURCE && (source < 0 || source >= comm->size())) {
        return XMPI_ERR_RANK;
    }
    xmpi::detail::Envelope const pattern{comm->pt2pt_context(), source, tag};
    auto& mailbox = comm->world().mailbox(xmpi::detail::current_world_rank());
    xmpi::Status probe_status;
    bool const found = mailbox.probe_blocking(pattern, probe_status, [&] {
        return xmpi::detail::check_peer(*comm, source) != XMPI_SUCCESS;
    });
    if (!found) {
        return xmpi::detail::check_peer(*comm, source);
    }
    if (status != XMPI_STATUS_IGNORE) {
        *status = probe_status;
    }
    return XMPI_SUCCESS;
}

int XMPI_Iprobe(int source, int tag, XMPI_Comm comm, int* flag, XMPI_Status* status) {
    count_call(xmpi::profile::Call::iprobe);
    if (source == XMPI_PROC_NULL) {
        *flag = 1;
        if (status != XMPI_STATUS_IGNORE) {
            *status = xmpi::Status{XMPI_PROC_NULL, XMPI_ANY_TAG, XMPI_SUCCESS, 0};
        }
        return XMPI_SUCCESS;
    }
    if (source != XMPI_ANY_SOURCE && (source < 0 || source >= comm->size())) {
        return XMPI_ERR_RANK;
    }
    xmpi::detail::Envelope const pattern{comm->pt2pt_context(), source, tag};
    auto& mailbox = comm->world().mailbox(xmpi::detail::current_world_rank());
    xmpi::Status probe_status;
    *flag = mailbox.probe(pattern, probe_status) ? 1 : 0;
    if (*flag != 0 && status != XMPI_STATUS_IGNORE) {
        *status = probe_status;
    }
    return XMPI_SUCCESS;
}

int XMPI_Get_count(XMPI_Status const* status, XMPI_Datatype datatype, int* count) {
    *count = status->count(datatype->size());
    return XMPI_SUCCESS;
}
/// @}

/// @name Request completion
/// @{
int XMPI_Wait(XMPI_Request* request, XMPI_Status* status) {
    if (*request == XMPI_REQUEST_NULL) {
        if (status != XMPI_STATUS_IGNORE) {
            *status = empty_status();
        }
        return XMPI_SUCCESS;
    }
    xmpi::Status wait_status;
    (*request)->wait(wait_status);
    consume_completed(request);
    if (status != XMPI_STATUS_IGNORE) {
        *status = wait_status;
    }
    return wait_status.error;
}

int XMPI_Test(XMPI_Request* request, int* flag, XMPI_Status* status) {
    if (*request == XMPI_REQUEST_NULL) {
        *flag = 1;
        if (status != XMPI_STATUS_IGNORE) {
            *status = empty_status();
        }
        return XMPI_SUCCESS;
    }
    xmpi::Status test_status;
    if ((*request)->test(test_status)) {
        *flag = 1;
        consume_completed(request);
        if (status != XMPI_STATUS_IGNORE) {
            *status = test_status;
        }
        return test_status.error;
    }
    *flag = 0;
    return XMPI_SUCCESS;
}

int XMPI_Waitall(int count, XMPI_Request* requests, XMPI_Status* statuses) {
    int first_error = XMPI_SUCCESS;
    for (int i = 0; i < count; ++i) {
        xmpi::Status status;
        int const err = XMPI_Wait(&requests[i], &status);
        if (statuses != XMPI_STATUSES_IGNORE) {
            statuses[i] = status;
        }
        if (err != XMPI_SUCCESS && first_error == XMPI_SUCCESS) {
            first_error = err;
        }
    }
    return first_error;
}

int XMPI_Testall(int count, XMPI_Request* requests, int* flag, XMPI_Status* statuses) {
    // First pass: probe without consuming. peek() (not test()) matters for
    // persistent requests: a completed one must stay consumable if the
    // answer turns out to be "not all done".
    for (int i = 0; i < count; ++i) {
        if (!is_pollable(requests[i])) {
            continue;
        }
        if (!requests[i]->peek()) {
            *flag = 0;
            return XMPI_SUCCESS;
        }
    }
    *flag = 1;
    // Second pass: consume every completion. Per-request failures are not
    // swallowed: with visible statuses the call reports ERR_IN_STATUS and
    // the statuses carry the real codes; without, the first error code.
    int first_error = XMPI_SUCCESS;
    bool any_error = false;
    for (int i = 0; i < count; ++i) {
        xmpi::Status status = empty_status();
        if (requests[i] != XMPI_REQUEST_NULL) {
            requests[i]->wait(status);
            consume_completed(&requests[i]);
        }
        if (statuses != XMPI_STATUSES_IGNORE) {
            statuses[i] = status;
        }
        if (status.error != XMPI_SUCCESS) {
            any_error = true;
            if (first_error == XMPI_SUCCESS) {
                first_error = status.error;
            }
        }
    }
    if (any_error) {
        return statuses != XMPI_STATUSES_IGNORE ? XMPI_ERR_IN_STATUS : first_error;
    }
    return XMPI_SUCCESS;
}

int XMPI_Waitany(int count, XMPI_Request* requests, int* index, XMPI_Status* status) {
    // Testany consumes the completion it reports (test() flips a persistent
    // request inactive), so the ladder stops at the first flag and never
    // re-tests a request it already saw complete.
    int flag = 0;
    int err = XMPI_SUCCESS;
    wait_ladder([&] {
        err = XMPI_Testany(count, requests, index, &flag, status);
        return flag != 0;
    });
    return err;
}

int XMPI_Waitsome(
    int incount, XMPI_Request* requests, int* outcount, int* indices, XMPI_Status* statuses) {
    // Testsome reports XMPI_UNDEFINED (nonzero) when no request is active.
    int err = XMPI_SUCCESS;
    wait_ladder([&] {
        err = XMPI_Testsome(incount, requests, outcount, indices, statuses);
        return *outcount != 0;
    });
    return err;
}

int XMPI_Testany(int count, XMPI_Request* requests, int* index, int* flag, XMPI_Status* status) {
    bool any_active = false;
    for (int i = 0; i < count; ++i) {
        if (!is_pollable(requests[i])) {
            continue;
        }
        any_active = true;
        xmpi::Status test_status;
        if (requests[i]->test(test_status)) {
            consume_completed(&requests[i]);
            *index = i;
            *flag = 1;
            if (status != XMPI_STATUS_IGNORE) {
                *status = test_status;
            }
            return test_status.error;
        }
    }
    *index = XMPI_UNDEFINED;
    // No active requests counts as "trivially complete" (MPI semantics);
    // active-but-incomplete reports flag = 0.
    *flag = any_active ? 0 : 1;
    if (!any_active && status != XMPI_STATUS_IGNORE) {
        *status = empty_status();
    }
    return XMPI_SUCCESS;
}

int XMPI_Testsome(
    int incount, XMPI_Request* requests, int* outcount, int* indices, XMPI_Status* statuses) {
    *outcount = 0;
    bool any_active = false;
    int first_error = XMPI_SUCCESS;
    bool any_error = false;
    for (int i = 0; i < incount; ++i) {
        if (!is_pollable(requests[i])) {
            continue;
        }
        any_active = true;
        xmpi::Status status;
        if (requests[i]->test(status)) {
            consume_completed(&requests[i]);
            indices[*outcount] = i;
            if (statuses != XMPI_STATUSES_IGNORE) {
                statuses[*outcount] = status;
            }
            if (status.error != XMPI_SUCCESS) {
                any_error = true;
                if (first_error == XMPI_SUCCESS) {
                    first_error = status.error;
                }
            }
            ++*outcount;
        }
    }
    if (!any_active && *outcount == 0) {
        *outcount = XMPI_UNDEFINED;
        return XMPI_SUCCESS;
    }
    if (any_error) {
        return statuses != XMPI_STATUSES_IGNORE ? XMPI_ERR_IN_STATUS : first_error;
    }
    return XMPI_SUCCESS;
}

int XMPI_Cancel(XMPI_Request* request) {
    if (*request == XMPI_REQUEST_NULL) {
        return XMPI_ERR_REQUEST;
    }
    (*request)->cancel();
    return XMPI_SUCCESS;
}

int XMPI_Request_free(XMPI_Request* request) {
    if (*request == XMPI_REQUEST_NULL) {
        return XMPI_ERR_REQUEST;
    }
    delete *request;
    *request = XMPI_REQUEST_NULL;
    return XMPI_SUCCESS;
}
/// @}

/// @name Persistent and partitioned requests
/// @{
int XMPI_Start(XMPI_Request* request) {
    count_call(xmpi::profile::Call::start);
    if (*request == XMPI_REQUEST_NULL || !(*request)->persistent()) {
        return XMPI_ERR_REQUEST;
    }
    return (*request)->start();
}

int XMPI_Startall(int count, XMPI_Request* requests) {
    for (int i = 0; i < count; ++i) {
        if (int const err = XMPI_Start(&requests[i]); err != XMPI_SUCCESS) {
            return err;
        }
    }
    return XMPI_SUCCESS;
}

int XMPI_Send_init(
    void const* buf, int count, XMPI_Datatype datatype, int dest, int tag, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::send_init);
    *request = xmpi::detail::make_persistent_send(
        *comm, buf, static_cast<std::size_t>(count), *datatype, dest, tag);
    return XMPI_SUCCESS;
}

int XMPI_Recv_init(
    void* buf, int count, XMPI_Datatype datatype, int source, int tag, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::recv_init);
    *request = xmpi::detail::make_persistent_recv(
        *comm, buf, static_cast<std::size_t>(count), *datatype, source, tag);
    return XMPI_SUCCESS;
}

int XMPI_Bcast_init(
    void* buffer, int count, XMPI_Datatype datatype, int root, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::bcast_init);
    *request = xmpi::detail::make_persistent_collective(
        "bcast_init", CollOp::bcast,
        {.comm = comm, .recvbuf = buffer, .recvcount = ucount(count), .recvtype = datatype,
         .root = root});
    return XMPI_SUCCESS;
}

int XMPI_Allreduce_init(
    void const* sendbuf, void* recvbuf, int count, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::allreduce_init);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    *request = xmpi::detail::make_persistent_collective(
        "allreduce_init", CollOp::allreduce,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(count),
         .sendtype = datatype, .op = op});
    return XMPI_SUCCESS;
}

int XMPI_Alltoall_init(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::alltoall_init);
    *request = xmpi::detail::make_persistent_alltoall(
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .recvcount = ucount(recvcount), .sendtype = sendtype, .recvtype = recvtype});
    return XMPI_SUCCESS;
}

int XMPI_Barrier_init(XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::barrier_init);
    *request = xmpi::detail::make_persistent_collective(
        "barrier_init", CollOp::barrier, {.comm = comm});
    return XMPI_SUCCESS;
}

int XMPI_Psend_init(
    void const* buf, int partitions, int count, XMPI_Datatype datatype, int dest, int tag,
    XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::psend_init);
    if (partitions <= 0 || count < 0) {
        return XMPI_ERR_ARG;
    }
    *request = new xmpi::detail::PartitionedSendRequest(
        comm, partitions, static_cast<std::size_t>(count), datatype, buf, dest, tag);
    return XMPI_SUCCESS;
}

int XMPI_Precv_init(
    void* buf, int partitions, int count, XMPI_Datatype datatype, int source, int tag,
    XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::precv_init);
    if (partitions <= 0 || count < 0) {
        return XMPI_ERR_ARG;
    }
    *request = new xmpi::detail::PartitionedRecvRequest(
        comm, partitions, static_cast<std::size_t>(count), datatype, buf, source, tag);
    return XMPI_SUCCESS;
}

int XMPI_Pready(int partition, XMPI_Request request) {
    count_call(xmpi::profile::Call::pready);
    auto* psend = dynamic_cast<xmpi::detail::PartitionedSendRequest*>(request);
    if (psend == nullptr) {
        return XMPI_ERR_REQUEST;
    }
    return psend->pready(partition);
}

int XMPI_Parrived(XMPI_Request request, int partition, int* flag) {
    count_call(xmpi::profile::Call::parrived);
    auto* precv = dynamic_cast<xmpi::detail::PartitionedRecvRequest*>(request);
    if (precv == nullptr) {
        return XMPI_ERR_REQUEST;
    }
    return precv->parrived(partition, flag);
}
/// @}

/// @name Collectives
/// @{
int XMPI_Barrier(XMPI_Comm comm) {
    count_call(xmpi::profile::Call::barrier);
    return run_blocking(CollOp::barrier, {.comm = comm});
}

int XMPI_Ibarrier(XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::ibarrier);
    *request = xmpi::detail::coll_ibarrier(*comm);
    return XMPI_SUCCESS;
}

int XMPI_Bcast(void* buffer, int count_, XMPI_Datatype datatype, int root, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::bcast);
    return run_blocking(
        CollOp::bcast, {.comm = comm, .recvbuf = buffer, .recvcount = ucount(count_),
                        .recvtype = datatype, .root = root});
}

int XMPI_Gather(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, int root, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::gather);
    return run_blocking(
        CollOp::gather,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .recvcount = ucount(recvcount), .sendtype = sendtype, .recvtype = recvtype,
         .root = root});
}

int XMPI_Gatherv(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf,
    int const* recvcounts, int const* displs, XMPI_Datatype recvtype, int root, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::gatherv);
    return run_blocking(
        CollOp::gatherv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .sendtype = sendtype, .recvtype = recvtype, .root = root, .recvcounts = recvcounts,
         .rdispls = displs});
}

int XMPI_Scatter(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, int root, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::scatter);
    return run_blocking(
        CollOp::scatter,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .recvcount = ucount(recvcount), .sendtype = sendtype, .recvtype = recvtype,
         .root = root});
}

int XMPI_Scatterv(
    void const* sendbuf, int const* sendcounts, int const* displs, XMPI_Datatype sendtype,
    void* recvbuf, int recvcount, XMPI_Datatype recvtype, int root, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::scatterv);
    return run_blocking(
        CollOp::scatterv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .recvcount = ucount(recvcount),
         .sendtype = sendtype, .recvtype = recvtype, .root = root, .sendcounts = sendcounts,
         .sdispls = displs});
}

int XMPI_Allgather(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::allgather);
    return run_blocking(
        CollOp::allgather,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .recvcount = ucount(recvcount), .sendtype = sendtype, .recvtype = recvtype});
}

int XMPI_Allgatherv(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf,
    int const* recvcounts, int const* displs, XMPI_Datatype recvtype, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::allgatherv);
    return run_blocking(
        CollOp::allgatherv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .sendtype = sendtype, .recvtype = recvtype, .recvcounts = recvcounts,
         .rdispls = displs});
}

int XMPI_Alltoall(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::alltoall);
    return run_blocking(
        CollOp::alltoall,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(sendcount),
         .recvcount = ucount(recvcount), .sendtype = sendtype, .recvtype = recvtype});
}

int XMPI_Alltoallv(
    void const* sendbuf, int const* sendcounts, int const* sdispls, XMPI_Datatype sendtype,
    void* recvbuf, int const* recvcounts, int const* rdispls, XMPI_Datatype recvtype,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::alltoallv);
    return run_blocking(
        CollOp::alltoallv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendtype = sendtype,
         .recvtype = recvtype, .sendcounts = sendcounts, .sdispls = sdispls,
         .recvcounts = recvcounts, .rdispls = rdispls});
}

int XMPI_Alltoallw(
    void const* sendbuf, int const* sendcounts, int const* sdispls,
    XMPI_Datatype const* sendtypes, void* recvbuf, int const* recvcounts, int const* rdispls,
    XMPI_Datatype const* recvtypes, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::alltoallw);
    return run_blocking(
        CollOp::alltoallw,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcounts = sendcounts,
         .sdispls = sdispls, .recvcounts = recvcounts, .rdispls = rdispls,
         .sendtypes = reinterpret_cast<xmpi::Datatype const* const*>(sendtypes),
         .recvtypes = reinterpret_cast<xmpi::Datatype const* const*>(recvtypes)});
}

int XMPI_Ibcast(
    void* buffer, int count_, XMPI_Datatype datatype, int root, XMPI_Comm comm,
    XMPI_Request* request) {
    count_call(xmpi::profile::Call::ibcast);
    *request = start_nonblocking(
        "ibcast", CollOp::bcast,
        {.comm = comm, .recvbuf = buffer, .recvcount = ucount(count_), .recvtype = datatype,
         .root = root});
    return XMPI_SUCCESS;
}

int XMPI_Iallreduce(
    void const* sendbuf, void* recvbuf, int count_, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::iallreduce);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    *request = start_nonblocking(
        "iallreduce", CollOp::allreduce,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendcount = ucount(count_),
         .sendtype = datatype, .op = op});
    return XMPI_SUCCESS;
}

int XMPI_Ialltoallv(
    void const* sendbuf, int const* sendcounts, int const* sdispls, XMPI_Datatype sendtype,
    void* recvbuf, int const* recvcounts, int const* rdispls, XMPI_Datatype recvtype,
    XMPI_Comm comm, XMPI_Request* request) {
    count_call(xmpi::profile::Call::ialltoallv);
    *request = start_nonblocking(
        "ialltoallv", CollOp::alltoallv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendtype = sendtype,
         .recvtype = recvtype, .sendcounts = sendcounts, .sdispls = sdispls,
         .recvcounts = recvcounts, .rdispls = rdispls});
    return XMPI_SUCCESS;
}

int XMPI_Reduce(
    void const* sendbuf, void* recvbuf, int count_, XMPI_Datatype datatype, XMPI_Op op, int root,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::reduce);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    return run_blocking(
        CollOp::reduce, {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf,
                         .sendcount = ucount(count_), .sendtype = datatype, .op = op,
                         .root = root});
}

int XMPI_Allreduce(
    void const* sendbuf, void* recvbuf, int count_, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::allreduce);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    return run_blocking(
        CollOp::allreduce, {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf,
                            .sendcount = ucount(count_), .sendtype = datatype, .op = op});
}

int XMPI_Reduce_scatter_block(
    void const* sendbuf, void* recvbuf, int recvcount, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::reduce_scatter_block);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    return run_blocking(
        CollOp::reduce_scatter, {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf,
                                 .recvcount = ucount(recvcount), .sendtype = datatype, .op = op});
}

int XMPI_Scan(
    void const* sendbuf, void* recvbuf, int count_, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::scan);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    return run_blocking(
        CollOp::scan, {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf,
                       .sendcount = ucount(count_), .sendtype = datatype, .op = op});
}

int XMPI_Exscan(
    void const* sendbuf, void* recvbuf, int count_, XMPI_Datatype datatype, XMPI_Op op,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::exscan);
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    return run_blocking(
        CollOp::scan, {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf,
                       .sendcount = ucount(count_), .sendtype = datatype, .op = op,
                       .exclusive = true});
}
/// @}

/// @name Datatypes
/// @{
int XMPI_Type_contiguous(int count_, XMPI_Datatype oldtype, XMPI_Datatype* newtype) {
    *newtype = xmpi::Datatype::contiguous(count_, *oldtype);
    return XMPI_SUCCESS;
}

int XMPI_Type_vector(
    int count_, int blocklength, int stride, XMPI_Datatype oldtype, XMPI_Datatype* newtype) {
    *newtype = xmpi::Datatype::vector(count_, blocklength, stride, *oldtype);
    return XMPI_SUCCESS;
}

int XMPI_Type_indexed(
    int count_, int const* blocklengths, int const* displacements, XMPI_Datatype oldtype,
    XMPI_Datatype* newtype) {
    *newtype = xmpi::Datatype::indexed(count_, blocklengths, displacements, *oldtype);
    return XMPI_SUCCESS;
}

int XMPI_Type_create_struct(
    int count_, int const* blocklengths, XMPI_Aint const* displacements,
    XMPI_Datatype const* types, XMPI_Datatype* newtype) {
    *newtype = xmpi::Datatype::create_struct(
        count_, blocklengths, displacements, const_cast<xmpi::Datatype* const*>(types));
    return XMPI_SUCCESS;
}

int XMPI_Type_create_resized(
    XMPI_Datatype oldtype, XMPI_Aint lb, XMPI_Aint extent, XMPI_Datatype* newtype) {
    *newtype = xmpi::Datatype::create_resized(*oldtype, lb, extent);
    return XMPI_SUCCESS;
}

int XMPI_Type_commit(XMPI_Datatype* datatype) {
    (*datatype)->commit();
    return XMPI_SUCCESS;
}

int XMPI_Type_free(XMPI_Datatype* datatype) {
    (*datatype)->release();
    *datatype = XMPI_DATATYPE_NULL;
    return XMPI_SUCCESS;
}

int XMPI_Type_size(XMPI_Datatype datatype, int* size) {
    *size = static_cast<int>(datatype->size());
    return XMPI_SUCCESS;
}

int XMPI_Type_get_extent(XMPI_Datatype datatype, XMPI_Aint* lb, XMPI_Aint* extent) {
    *lb = datatype->lower_bound();
    *extent = datatype->extent();
    return XMPI_SUCCESS;
}
/// @}

/// @name Ops
/// @{
int XMPI_Op_create(xmpi::UserFunction function, int commute, XMPI_Op* op) {
    *op = new xmpi::Op(function, commute != 0);
    return XMPI_SUCCESS;
}

int XMPI_Op_free(XMPI_Op* op) {
    if ((*op)->is_builtin()) {
        return XMPI_ERR_OP;
    }
    delete *op;
    *op = XMPI_OP_NULL;
    return XMPI_SUCCESS;
}
/// @}

/// @name Groups and communicators
/// @{
int XMPI_Comm_group(XMPI_Comm comm, XMPI_Group* group) {
    *group = new xmpi::Group(comm->members());
    return XMPI_SUCCESS;
}

int XMPI_Group_size(XMPI_Group group, int* size) {
    *size = group->size();
    return XMPI_SUCCESS;
}

int XMPI_Group_rank(XMPI_Group group, int* rank) {
    *rank = group->rank_of(xmpi::detail::current_world_rank());
    return XMPI_SUCCESS;
}

int XMPI_Group_incl(XMPI_Group group, int n, int const* ranks, XMPI_Group* newgroup) {
    *newgroup = group->incl(std::vector<int>(ranks, ranks + n));
    return XMPI_SUCCESS;
}

int XMPI_Group_excl(XMPI_Group group, int n, int const* ranks, XMPI_Group* newgroup) {
    *newgroup = group->excl(std::vector<int>(ranks, ranks + n));
    return XMPI_SUCCESS;
}

int XMPI_Group_union(XMPI_Group group1, XMPI_Group group2, XMPI_Group* newgroup) {
    *newgroup = group1->union_with(*group2);
    return XMPI_SUCCESS;
}

int XMPI_Group_intersection(XMPI_Group group1, XMPI_Group group2, XMPI_Group* newgroup) {
    *newgroup = group1->intersection_with(*group2);
    return XMPI_SUCCESS;
}

int XMPI_Group_difference(XMPI_Group group1, XMPI_Group group2, XMPI_Group* newgroup) {
    *newgroup = group1->difference_with(*group2);
    return XMPI_SUCCESS;
}

int XMPI_Group_translate_ranks(
    XMPI_Group group1, int n, int const* ranks1, XMPI_Group group2, int* ranks2) {
    for (int i = 0; i < n; ++i) {
        ranks2[i] = group2->rank_of(group1->world_ranks()[static_cast<std::size_t>(ranks1[i])]);
    }
    return XMPI_SUCCESS;
}

int XMPI_Group_free(XMPI_Group* group) {
    (*group)->release();
    *group = XMPI_GROUP_NULL;
    return XMPI_SUCCESS;
}

int XMPI_Comm_dup(XMPI_Comm comm, XMPI_Comm* newcomm) {
    count_call(xmpi::profile::Call::comm_dup);
    return xmpi::detail::comm_dup(*comm, newcomm);
}

int XMPI_Comm_split(XMPI_Comm comm, int color, int key, XMPI_Comm* newcomm) {
    count_call(xmpi::profile::Call::comm_split);
    return xmpi::detail::comm_split(*comm, color, key, newcomm);
}

int XMPI_Comm_create(XMPI_Comm comm, XMPI_Group group, XMPI_Comm* newcomm) {
    count_call(xmpi::profile::Call::comm_create);
    return xmpi::detail::comm_create(*comm, *group, newcomm);
}

int XMPI_Comm_free(XMPI_Comm* comm) {
    if (*comm == XMPI_COMM_NULL || *comm == (*comm)->world().world_comm()) {
        return XMPI_ERR_COMM;
    }
    (*comm)->release();
    *comm = XMPI_COMM_NULL;
    return XMPI_SUCCESS;
}
/// @}

/// @name Topologies
/// @{
int XMPI_Dist_graph_create_adjacent(
    XMPI_Comm comm_old, int indegree, int const* sources, int const* /*sourceweights*/,
    int outdegree, int const* destinations, int const* /*destweights*/, int /*reorder*/,
    XMPI_Comm* comm_dist_graph) {
    count_call(xmpi::profile::Call::dist_graph_create_adjacent);
    return xmpi::detail::dist_graph_create_adjacent(
        *comm_old, indegree, sources, outdegree, destinations, comm_dist_graph);
}

int XMPI_Dist_graph_neighbors_count(XMPI_Comm comm, int* indegree, int* outdegree, int* weighted) {
    if (!comm->has_topology()) {
        return XMPI_ERR_TOPOLOGY;
    }
    *indegree = static_cast<int>(comm->topology().sources.size());
    *outdegree = static_cast<int>(comm->topology().destinations.size());
    *weighted = 0;
    return XMPI_SUCCESS;
}

int XMPI_Neighbor_alltoall(
    void const* sendbuf, int sendcount, XMPI_Datatype sendtype, void* recvbuf, int recvcount,
    XMPI_Datatype recvtype, XMPI_Comm comm) {
    count_call(xmpi::profile::Call::neighbor_alltoall);
    if (!comm->has_topology()) {
        return XMPI_ERR_TOPOLOGY;
    }
    auto const& topology = comm->topology();
    std::vector<int> sendcounts(topology.destinations.size(), sendcount);
    std::vector<int> recvcounts(topology.sources.size(), recvcount);
    std::vector<int> sdispls(topology.destinations.size());
    std::vector<int> rdispls(topology.sources.size());
    for (std::size_t i = 0; i < sdispls.size(); ++i) {
        sdispls[i] = static_cast<int>(i) * sendcount;
    }
    for (std::size_t i = 0; i < rdispls.size(); ++i) {
        rdispls[i] = static_cast<int>(i) * recvcount;
    }
    return run_blocking(
        CollOp::neighbor_alltoallv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendtype = sendtype,
         .recvtype = recvtype, .sendcounts = sendcounts.data(), .sdispls = sdispls.data(),
         .recvcounts = recvcounts.data(), .rdispls = rdispls.data()});
}

int XMPI_Neighbor_alltoallv(
    void const* sendbuf, int const* sendcounts, int const* sdispls, XMPI_Datatype sendtype,
    void* recvbuf, int const* recvcounts, int const* rdispls, XMPI_Datatype recvtype,
    XMPI_Comm comm) {
    count_call(xmpi::profile::Call::neighbor_alltoallv);
    return run_blocking(
        CollOp::neighbor_alltoallv,
        {.comm = comm, .sendbuf = sendbuf, .recvbuf = recvbuf, .sendtype = sendtype,
         .recvtype = recvtype, .sendcounts = sendcounts, .sdispls = sdispls,
         .recvcounts = recvcounts, .rdispls = rdispls});
}
/// @}

/// @name ULFM
/// @{
int XMPI_Comm_revoke(XMPI_Comm comm) {
    return xmpi::detail::ulfm_revoke(*comm);
}

int XMPI_Comm_is_revoked(XMPI_Comm comm, int* flag) {
    *flag = comm->revoked() ? 1 : 0;
    return XMPI_SUCCESS;
}

int XMPI_Comm_shrink(XMPI_Comm comm, XMPI_Comm* newcomm) {
    count_call(xmpi::profile::Call::comm_shrink);
    return xmpi::detail::ulfm_shrink(*comm, newcomm);
}

int XMPI_Comm_agree(XMPI_Comm comm, int* flag) {
    count_call(xmpi::profile::Call::comm_agree);
    return xmpi::detail::ulfm_agree(*comm, flag);
}
/// @}

/// @name Elastic worlds (dynamic membership)
///
/// session_leave / epoch_sync are profiled inside the World entry points
/// (not via count_call here) so chaos windows also cover direct World-level
/// use; Membership_* are pure reads.
/// @{
int XMPI_Session_leave() {
    xmpi::detail::current_world().leave_session();
    return XMPI_SUCCESS;
}

int XMPI_Epoch_sync(XMPI_Comm* newcomm) {
    *newcomm = xmpi::detail::current_world().epoch_sync();
    return XMPI_SUCCESS;
}

int XMPI_Membership_epoch(XMPI_Comm comm, std::uint64_t* epoch) {
    if (comm == XMPI_COMM_NULL) {
        return XMPI_ERR_COMM;
    }
    *epoch = comm->world().membership_epoch();
    return XMPI_SUCCESS;
}

int XMPI_Membership_changed(XMPI_Comm comm, int* flag) {
    if (comm == XMPI_COMM_NULL) {
        return XMPI_ERR_COMM;
    }
    *flag = (comm->epoch_stale() || comm->world().membership_pending()) ? 1 : 0;
    return XMPI_SUCCESS;
}
/// @}

/// @name One-sided communication (RMA)
/// @{
namespace {

/// Shared handle/argument validation of the three access functions.
int check_rma_args(XMPI_Datatype origin_datatype, XMPI_Datatype target_datatype, int origin_count,
                   int target_count, XMPI_Win win) {
    if (win == XMPI_WIN_NULL) {
        return XMPI_ERR_WIN;
    }
    if (origin_count < 0 || target_count < 0) {
        return XMPI_ERR_COUNT;
    }
    if (origin_datatype == XMPI_DATATYPE_NULL || target_datatype == XMPI_DATATYPE_NULL) {
        return XMPI_ERR_TYPE;
    }
    return XMPI_SUCCESS;
}

} // namespace

int XMPI_Win_create(void* base, XMPI_Aint size, int disp_unit, XMPI_Comm comm, XMPI_Win* win) {
    count_call(xmpi::profile::Call::win_create);
    if (comm == XMPI_COMM_NULL) {
        return XMPI_ERR_COMM;
    }
    if (size < 0) {
        return XMPI_ERR_ARG;
    }
    if (disp_unit <= 0) {
        return XMPI_ERR_DISP;
    }
    if (base == nullptr && size > 0) {
        return XMPI_ERR_BUFFER;
    }
    return xmpi::detail::win_create(base, static_cast<std::size_t>(size), disp_unit, *comm, win);
}

int XMPI_Win_allocate(
    XMPI_Aint size, int disp_unit, XMPI_Comm comm, void* baseptr, XMPI_Win* win) {
    count_call(xmpi::profile::Call::win_allocate);
    if (comm == XMPI_COMM_NULL) {
        return XMPI_ERR_COMM;
    }
    if (size < 0) {
        return XMPI_ERR_ARG;
    }
    if (disp_unit <= 0) {
        return XMPI_ERR_DISP;
    }
    if (baseptr == nullptr || win == nullptr) {
        return XMPI_ERR_ARG;
    }
    return xmpi::detail::win_allocate(
        static_cast<std::size_t>(size), disp_unit, *comm, static_cast<void**>(baseptr), win);
}

int XMPI_Win_free(XMPI_Win* win) {
    count_call(xmpi::profile::Call::win_free);
    if (win == nullptr || *win == XMPI_WIN_NULL) {
        return XMPI_ERR_WIN;
    }
    int const err = xmpi::detail::win_free(**win);
    if (err != XMPI_ERR_RMA_SYNC) {
        *win = XMPI_WIN_NULL; // freed (even if the barrier reported a failure)
    }
    return err;
}

int XMPI_Put(
    void const* origin_addr, int origin_count, XMPI_Datatype origin_datatype, int target_rank,
    XMPI_Aint target_disp, int target_count, XMPI_Datatype target_datatype, XMPI_Win win) {
    count_call(xmpi::profile::Call::put);
    if (int const err =
            check_rma_args(origin_datatype, target_datatype, origin_count, target_count, win);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (target_rank == XMPI_PROC_NULL) {
        return XMPI_SUCCESS;
    }
    return win->put(
        origin_addr, static_cast<std::size_t>(origin_count), *origin_datatype, target_rank,
        target_disp, static_cast<std::size_t>(target_count), *target_datatype);
}

int XMPI_Get(
    void* origin_addr, int origin_count, XMPI_Datatype origin_datatype, int target_rank,
    XMPI_Aint target_disp, int target_count, XMPI_Datatype target_datatype, XMPI_Win win) {
    count_call(xmpi::profile::Call::get);
    if (int const err =
            check_rma_args(origin_datatype, target_datatype, origin_count, target_count, win);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (target_rank == XMPI_PROC_NULL) {
        return XMPI_SUCCESS;
    }
    return win->get(
        origin_addr, static_cast<std::size_t>(origin_count), *origin_datatype, target_rank,
        target_disp, static_cast<std::size_t>(target_count), *target_datatype);
}

int XMPI_Accumulate(
    void const* origin_addr, int origin_count, XMPI_Datatype origin_datatype, int target_rank,
    XMPI_Aint target_disp, int target_count, XMPI_Datatype target_datatype, XMPI_Op op,
    XMPI_Win win) {
    count_call(xmpi::profile::Call::accumulate);
    if (int const err =
            check_rma_args(origin_datatype, target_datatype, origin_count, target_count, win);
        err != XMPI_SUCCESS) {
        return err;
    }
    if (int const err = check_op(op, target_datatype); err != XMPI_SUCCESS) {
        return err;
    }
    if (target_rank == XMPI_PROC_NULL) {
        return XMPI_SUCCESS;
    }
    return win->accumulate(
        origin_addr, static_cast<std::size_t>(origin_count), *origin_datatype, target_rank,
        target_disp, static_cast<std::size_t>(target_count), *target_datatype, *op);
}

int XMPI_Fetch_and_op(
    void const* origin_addr, void* result_addr, XMPI_Datatype datatype, int target_rank,
    XMPI_Aint target_disp, XMPI_Op op, XMPI_Win win) {
    count_call(xmpi::profile::Call::fetch_and_op);
    if (int const err = check_rma_args(datatype, datatype, 1, 1, win); err != XMPI_SUCCESS) {
        return err;
    }
    if (int const err = check_op(op, datatype); err != XMPI_SUCCESS) {
        return err;
    }
    if (result_addr == nullptr) {
        return XMPI_ERR_BUFFER;
    }
    if (target_rank == XMPI_PROC_NULL) {
        return XMPI_SUCCESS;
    }
    return win->fetch_and_op(origin_addr, result_addr, *datatype, target_rank, target_disp, *op);
}

int XMPI_Compare_and_swap(
    void const* origin_addr, void const* compare_addr, void* result_addr, XMPI_Datatype datatype,
    int target_rank, XMPI_Aint target_disp, XMPI_Win win) {
    count_call(xmpi::profile::Call::compare_and_swap);
    if (int const err = check_rma_args(datatype, datatype, 1, 1, win); err != XMPI_SUCCESS) {
        return err;
    }
    if (origin_addr == nullptr || compare_addr == nullptr || result_addr == nullptr) {
        return XMPI_ERR_BUFFER;
    }
    if (target_rank == XMPI_PROC_NULL) {
        return XMPI_SUCCESS;
    }
    return win->compare_and_swap(
        origin_addr, compare_addr, result_addr, *datatype, target_rank, target_disp);
}

int XMPI_Win_fence(int /*assertion*/, XMPI_Win win) {
    count_call(xmpi::profile::Call::win_fence);
    if (win == XMPI_WIN_NULL) {
        return XMPI_ERR_WIN;
    }
    return win->fence();
}

int XMPI_Win_lock(int lock_type, int rank, int /*assertion*/, XMPI_Win win) {
    count_call(xmpi::profile::Call::win_lock);
    if (win == XMPI_WIN_NULL) {
        return XMPI_ERR_WIN;
    }
    return win->lock(lock_type, rank);
}

int XMPI_Win_unlock(int rank, XMPI_Win win) {
    count_call(xmpi::profile::Call::win_unlock);
    if (win == XMPI_WIN_NULL) {
        return XMPI_ERR_WIN;
    }
    return win->unlock(rank);
}
/// @}
