/// @file request.hpp
/// @brief Request objects for non-blocking operations.
#pragma once

#include <cstdint>
#include <memory>

#include "xmpi/error.hpp"
#include "xmpi/status.hpp"

namespace xmpi {

class Comm;

namespace detail {
struct RecvTicket;
struct SyncHandle;
class Mailbox;
class Waiter;
} // namespace detail

/// @brief A non-blocking operation handle. Concrete subclasses implement the
/// completion semantics of the operation kind.
class Request {
public:
    virtual ~Request() = default;

    /// @brief Non-blocking completion check; fills @c status when complete.
    /// Idempotent once complete.
    virtual bool test(Status& status) = 0;

    /// @brief Completion check that never consumes: unlike test(), a
    /// complete persistent request stays active (its completion remains
    /// consumable). The array completion functions probe with this before
    /// committing to consumption (e.g. Testall's all-or-nothing contract).
    [[nodiscard]] virtual bool peek() {
        Status status;
        return test(status);
    }

    /// @brief Blocks until complete; fills @c status.
    virtual void wait(Status& status) = 0;

    /// @brief Attempts to cancel the operation. Only pending receives are
    /// cancellable; returns true iff cancellation succeeded.
    virtual bool cancel() { return false; }

    /// @name Persistent-request lifecycle (MPI-4 Send_init/Start family).
    /// Ordinary requests are consumed by completion; persistent ones cycle
    /// inactive -> started -> complete(inactive) until Request_free.
    /// @{
    /// @brief True iff this is a persistent request (survives completion).
    [[nodiscard]] virtual bool persistent() const { return false; }
    /// @brief False iff this is a persistent request between completion (or
    /// creation) and the next start(). The array completion functions treat
    /// inactive requests like null handles.
    [[nodiscard]] virtual bool active() const { return true; }
    /// @brief (Re)starts a persistent operation; XMPI_ERR_REQUEST on
    /// non-persistent or already-active requests.
    virtual int start() { return XMPI_ERR_REQUEST; }
    /// @}

protected:
    Request() = default;
    Request(Request const&) = delete;
    Request& operator=(Request const&) = delete;
};

namespace detail {

/// @brief Request for an operation that completed at initiation (eager
/// buffered sends).
class CompletedRequest final : public Request {
public:
    explicit CompletedRequest(Status status) : status_(status) {}
    bool test(Status& status) override {
        status = status_;
        return true;
    }
    void wait(Status& status) override { status = status_; }

private:
    Status status_;
};

/// @brief Request completing when a SyncHandle fires (synchronous-mode sends).
class SyncRequest final : public Request {
public:
    SyncRequest(std::shared_ptr<SyncHandle> handle, Comm const* comm)
        : handle_(std::move(handle)),
          comm_(comm) {}
    bool test(Status& status) override;
    void wait(Status& status) override;

private:
    std::shared_ptr<SyncHandle> handle_;
    Comm const* comm_;
};

/// @brief Request wrapping a posted receive.
class RecvRequest final : public Request {
public:
    RecvRequest(std::shared_ptr<RecvTicket> ticket, Mailbox* mailbox)
        : ticket_(std::move(ticket)),
          mailbox_(mailbox) {}
    bool test(Status& status) override;
    void wait(Status& status) override;
    bool cancel() override;

private:
    /// @brief If the peer failed / comm was revoked, completes the request
    /// with the corresponding error status. Returns true iff so.
    bool check_failed(Status& status);

    std::shared_ptr<RecvTicket> ticket_;
    Mailbox* mailbox_;
};

/// @brief Base of the persistent requests (XMPI_Send_init family): stores
/// the argument pack once and, on every start(), initiates the operation by
/// creating a fresh *inner* one-shot request that carries the completion
/// semantics. Completion makes the request inactive again instead of
/// consuming it; Wait/Test on an inactive persistent request return
/// immediately with an empty status (MPI semantics).
///
/// Not thread-safe by itself: start/test/wait must come from the owning
/// rank (the partitioned subclasses add their own synchronization for
/// foreign producer threads).
class PersistentRequest : public Request {
public:
    /// Freeing an active persistent request first tries to cancel the
    /// in-flight instance and otherwise blocks until it completes: the
    /// operation references user buffers that die with the caller's scope.
    ~PersistentRequest() override;

    [[nodiscard]] bool persistent() const final { return true; }
    [[nodiscard]] bool active() const override { return active_; }

    int start() override;
    bool test(Status& status) override;
    [[nodiscard]] bool peek() override;
    void wait(Status& status) override;
    bool cancel() override;

    /// @brief Completed start()s so far (for diagnostics and spans).
    [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

protected:
    /// @brief Initiates one instance of the operation: must install the
    /// inner request tracking it (or a CompletedRequest for operations that
    /// finish at initiation) and return an error class.
    virtual int do_start() = 0;

    /// @brief The empty status reported for inactive requests.
    [[nodiscard]] static Status inactive_status();

    std::unique_ptr<Request> inner_;
    bool active_ = false;
    std::uint64_t restarts_ = 0;
};

// Non-blocking collectives run as fibers on their initiating rank
// (xmpi/progress.hpp). Their request type (FiberRequest) is an
// implementation detail of progress.cpp.

/// @brief Request for a non-blocking barrier round (see Comm::ibarrier).
class IbarrierRequest final : public Request {
public:
    /// @param waiter The initiating rank's Waiter (notified at round completion).
    IbarrierRequest(Comm* comm, std::uint64_t round, Waiter& waiter)
        : comm_(comm),
          round_(round),
          waiter_(&waiter) {}
    bool test(Status& status) override;
    void wait(Status& status) override;

private:
    Comm* comm_;
    std::uint64_t round_;
    Waiter* waiter_;
};

} // namespace detail
} // namespace xmpi
