/// @file progress.hpp
/// @brief Non-blocking operations as fibers on their initiating rank.
///
/// Every engine task (XMPI_Ibcast / Iallreduce / Ialltoallv, a persistent
/// collective's round first driven by test(), the partitioned send) runs as
/// a fiber owned by the rank thread that initiated it: a `<ucontext.h>`
/// context on a pooled, guard-paged stack. No operation creates a thread.
///
/// Progress contract (MPI's weak-progress rule, as in libNBC):
///  - eager start: initiation runs the fiber until its first block,
///  - where the fiber would block in Waiter::wait_until it parks instead
///    and control returns to its rank,
///  - the rank thread resumes its parked fibers, oldest first, in test(),
///    wait(), poll() (run by every XMPI_Test*, XMPI_Iprobe and XMPI_Parrived)
///    and on every rung of its own blocking waits — but only
///    those whose Waiter epoch moved since they parked (the rank re-checks
///    their predicate first, without switching), whose deadline passed, or
///    that must unwind. The eventcount already notifies every event that
///    can make a parked predicate true, so no parked fiber misses one.
///
/// Lifetime: a fiber never outlives its rank thread. A fiber resumed after
/// its rank was marked failed unwinds (its stack objects are destroyed) and
/// completes with XMPI_ERR_PROC_FAILED; the rank thread's exit path
/// (World::detach_current_thread) unwinds every fiber it still owns.
/// Switches swap profile's thread-local tracing notes, so spans and
/// algorithm notes stay attributed to the operation that made them.
#pragma once

#include <cstddef>
#include <functional>

namespace xmpi {

class Request;

namespace progress {

/// @brief Configuration of the retired worker pool. Kept so existing
/// callers still compile; fibers need no threads and no queue, so
/// configure() has no effect.
struct Config {
    unsigned threads = 0;
    std::size_t queue_capacity = 1024;
};

/// @brief No effect (see Config).
void configure(Config config);

/// @brief Resumes the calling rank's ready fibers, oldest first. Returns
/// true iff any fiber ran.
bool poll();

namespace detail {

/// @brief Starts @c body (returning an XMPI error code) as a fiber of the
/// calling rank and returns the request tracking it. @c op names the
/// operation for tracing spans. If no stack can be mapped, @c body never
/// runs and the request completes with XMPI_ERR_INTERN.
Request* submit(char const* op, std::function<int()> body);

/// @brief Unwinds every fiber the calling thread owns (rank-thread exit).
void unwind_fibers();

} // namespace detail
} // namespace progress
} // namespace xmpi
