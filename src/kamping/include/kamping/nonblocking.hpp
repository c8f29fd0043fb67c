/// @file nonblocking.hpp
/// @brief Memory-safe non-blocking communication (paper, Section III-E).
///
/// A non-blocking call returns a NonBlockingResult that *owns* the request
/// and every buffer moved into the call. Received (or moved-through) data is
/// only handed back on wait(), or through a successful test() — so user code
/// cannot touch buffers while the operation is in flight, the property
/// std::future provides for asynchronous computation but MPI cannot.
#pragma once

#include <exception>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "kamping/p2p.hpp"
#include "kamping/pipeline.hpp"
#include "xmpi/api.hpp"
#include "xmpi/progress.hpp"

namespace kamping {

/// @brief Handle for a pending non-blocking operation; owns the request and
/// the moved-in buffers.
template <typename... Buffers>
class NonBlockingResult {
public:
    /// @brief Stores the buffers, then invokes @c poster with references to
    /// the *stored* buffers (stable addresses) to initiate the operation.
    template <typename Poster>
    explicit NonBlockingResult(Poster&& poster, Buffers&&... buffers)
        : buffers_(std::move(buffers)...) {
        request_ = std::apply(
            [&](auto&... stored) { return poster(stored...); }, buffers_);
    }

    NonBlockingResult(NonBlockingResult&& other) noexcept
        : request_(std::exchange(other.request_, XMPI_REQUEST_NULL)),
          buffers_(std::move(other.buffers_)) {}
    NonBlockingResult& operator=(NonBlockingResult&&) = delete;
    NonBlockingResult(NonBlockingResult const&) = delete;
    NonBlockingResult& operator=(NonBlockingResult const&) = delete;

    ~NonBlockingResult() {
        if (request_ != XMPI_REQUEST_NULL) {
            // Abandoned in-flight operation: cancel if possible, then free.
            XMPI_Cancel(&request_);
            XMPI_Request_free(&request_);
        }
    }

    /// @brief Type of the value produced on completion (void if nothing is
    /// returned by value).
    using result_type =
        decltype(internal::make_result(std::declval<Buffers&&>()...));
    static constexpr bool returns_value = !std::is_void_v<result_type>;

    /// @brief Blocks until completion; returns the owned data (paper,
    /// Fig. 6: `v = r1.wait();`).
    result_type wait() {
        xmpi::Status status;
        if (request_ != XMPI_REQUEST_NULL) {
            XMPI_Wait(&request_, &status);
            internal::throw_on_error(status.error, "XMPI_Wait");
        }
        return extract_result();
    }

    /// @brief Non-blocking completion check. For value-returning operations:
    /// std::optional with the data iff complete; data can only ever be
    /// obtained once. For void operations: true iff complete.
    auto test() {
        if constexpr (returns_value) {
            if (!test_completed()) {
                return std::optional<result_type>{};
            }
            return std::optional<result_type>{extract_result()};
        } else {
            return test_completed();
        }
    }

    /// @brief True iff the underlying request has completed (or was already
    /// consumed).
    bool test_completed() {
        if (request_ == XMPI_REQUEST_NULL) {
            return true;
        }
        int flag = 0;
        xmpi::Status status;
        int const err = XMPI_Test(&request_, &flag, &status);
        internal::throw_on_error(err, "XMPI_Test");
        return flag != 0;
    }

    /// @brief Internal: the owned request handle, exposed so RequestPool can
    /// sweep many handles with one XMPI_Testsome instead of testing each
    /// entry individually. A completed handle is written back as
    /// XMPI_REQUEST_NULL, which this class already treats as "consumed".
    [[nodiscard]] XMPI_Request& raw_request() { return request_; }

private:
    result_type extract_result() {
        return std::apply(
            [](auto&... stored) { return internal::make_result(std::move(stored)...); },
            buffers_);
    }

    XMPI_Request request_ = XMPI_REQUEST_NULL;
    std::tuple<Buffers...> buffers_;
};

namespace internal {

/// @brief comm.isend(send_buf_out(std::move(v)), destination(d), [tag]):
/// the buffer is owned by the returned handle and re-returned on wait().
template <typename... Args>
auto isend_impl(XMPI_Comm comm, Args&&... args) {
    KAMPING_PLAN_REQUIRE(
        (has_parameter_v<ParameterType::send_buf, Args...>), "isend",
        "send_buf (or send_buf_out)");
    KAMPING_PLAN_REQUIRE(
        (has_parameter_v<ParameterType::destination, Args...>), "isend", "destination");
    // The plan's span covers posting the operation; completion happens in
    // wait()/test() on the returned handle.
    CollectivePlan<plan_ops::isend, Args...> plan(comm);
    auto send = std::move(select_parameter<ParameterType::send_buf>(args...));
    using SendBuffer = std::remove_cvref_t<decltype(send)>;
    using T = buffer_value_t<SendBuffer>;
    plan.note_bytes_in(send.size() * sizeof(T));
    int const dest = select_parameter<ParameterType::destination>(args...).value;
    int const tag_value = get_tag(args...);

    return NonBlockingResult<SendBuffer>(
        [&](SendBuffer& stored) {
            XMPI_Request request = XMPI_REQUEST_NULL;
            plan.dispatch("XMPI_Isend", [&] {
                return XMPI_Isend(
                    stored.data(), static_cast<int>(stored.size()), mpi_datatype<T>(), dest,
                    tag_value, comm, &request);
            });
            return request;
        },
        std::move(send));
}

/// @brief Synchronous-mode isend (completes when the receive matched).
template <typename... Args>
auto issend_impl(XMPI_Comm comm, Args&&... args) {
    CollectivePlan<plan_ops::issend, Args...> plan(comm);
    auto send = std::move(select_parameter<ParameterType::send_buf>(args...));
    using SendBuffer = std::remove_cvref_t<decltype(send)>;
    using T = buffer_value_t<SendBuffer>;
    plan.note_bytes_in(send.size() * sizeof(T));
    int const dest = select_parameter<ParameterType::destination>(args...).value;
    int const tag_value = get_tag(args...);

    return NonBlockingResult<SendBuffer>(
        [&](SendBuffer& stored) {
            XMPI_Request request = XMPI_REQUEST_NULL;
            plan.dispatch("XMPI_Issend", [&] {
                return XMPI_Issend(
                    stored.data(), static_cast<int>(stored.size()), mpi_datatype<T>(), dest,
                    tag_value, comm, &request);
            });
            return request;
        },
        std::move(send));
}

/// @brief comm.irecv<T>(recv_count(n), [source], [tag], [recv_buf]): the
/// receive buffer lives inside the returned handle; data is only accessible
/// once the request completed (paper, Fig. 6: `data = r2.wait();`).
template <typename T, typename... Args>
auto irecv_impl(XMPI_Comm comm, Args&&... args) {
    KAMPING_CHECK_PARAMETERS(
        Args, "irecv", ParameterType::recv_buf, ParameterType::source, ParameterType::tag,
        ParameterType::recv_count);
    CollectivePlan<plan_ops::irecv, Args...> plan(comm);
    int source_rank = XMPI_ANY_SOURCE;
    if constexpr (has_parameter_v<ParameterType::source, Args...>) {
        source_rank = select_parameter<ParameterType::source>(args...).value;
    }
    int const tag_value = [&] {
        if constexpr (has_parameter_v<ParameterType::tag, Args...>) {
            return select_parameter<ParameterType::tag>(args...).value;
        } else {
            return XMPI_ANY_TAG;
        }
    }();

    auto recv = take_parameter_or_default<ParameterType::recv_buf>(
        default_recv_buf_factory<T>(), args...);
    using RecvBuffer = std::remove_cvref_t<decltype(recv)>;
    using V = buffer_value_t<RecvBuffer>;

    int count;
    if constexpr (has_parameter_v<ParameterType::recv_count, Args...>) {
        count = select_parameter<ParameterType::recv_count>(args...).value;
    } else {
        static_assert(
            has_parameter_v<ParameterType::recv_buf, Args...>,
            "irecv needs to know the message size up front: pass recv_count(n) or a sized "
            "recv_buf(...) (a non-blocking receive cannot probe)");
        count = static_cast<int>(recv.size());
    }
    recv.resize_to(static_cast<std::size_t>(count));
    plan.note_bytes_out(static_cast<std::uint64_t>(count) * sizeof(V));

    return NonBlockingResult<RecvBuffer>(
        [&](RecvBuffer& stored) {
            XMPI_Request request = XMPI_REQUEST_NULL;
            plan.dispatch("XMPI_Irecv", [&] {
                return XMPI_Irecv(
                    stored.data(), count, mpi_datatype<V>(), source_rank, tag_value, comm,
                    &request);
            });
            return request;
        },
        std::move(recv));
}

} // namespace internal

/// @brief Collects non-blocking results for bulk completion (paper,
/// Section III-E "request pools"). The current implementation stores them in
/// an unbounded array; the interface is designed so bounded variants can be
/// added (as the paper's authors do) without changing call sites.
class RequestPool {
public:
    /// @brief Transfers a pending operation into the pool. Returned values
    /// of pooled operations are discarded on completion — use referencing
    /// recv_buf parameters to keep received data.
    template <typename... Buffers>
    void add(NonBlockingResult<Buffers...>&& result) {
        entries_.push_back(std::make_unique<Entry<Buffers...>>(std::move(result)));
    }

    /// @brief Waits for all pooled operations, then empties the pool. When
    /// operations fail (e.g. the communicator is revoked mid-flight), every
    /// entry is still drained — no request is left dangling — and the first
    /// failure is rethrown afterwards, so ULFM recovery code can catch one
    /// exception and retry with an empty pool.
    void wait_all() {
        std::exception_ptr first_error;
        for (auto& entry: entries_) {
            try {
                entry->wait();
            } catch (...) {
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
        }
        entries_.clear();
        if (first_error) {
            std::rethrow_exception(first_error);
        }
    }

    /// @brief Tests all pooled operations with ONE XMPI_Testsome sweep;
    /// completed ones are removed. Entries that completed with an error are
    /// removed too, and the first error is rethrown after the sweep (the
    /// ERR_IN_STATUS convention, surfaced as a kamping exception). Returns
    /// true iff the pool is empty afterwards.
    ///
    /// A sweep that leaves entries pending also resumes the rank's ready
    /// fibers (xmpi::progress::poll()), so a test_all() polling loop keeps
    /// the rank's non-blocking collectives moving.
    bool test_all() {
        // Entries whose handle was already consumed (wait()ed or test()ed
        // through the result object directly) are complete by definition.
        std::erase_if(entries_, [](auto const& entry) {
            return entry->raw_request() == XMPI_REQUEST_NULL;
        });
        if (entries_.empty()) {
            return true;
        }

        std::vector<XMPI_Request> requests(entries_.size());
        std::vector<int> indices(entries_.size());
        std::vector<xmpi::Status> statuses(entries_.size());
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            requests[i] = entries_[i]->raw_request();
        }
        int outcount = 0;
        int const err = XMPI_Testsome(
            static_cast<int>(requests.size()), requests.data(), &outcount, indices.data(),
            statuses.data());
        // Write the handles back first: Testsome consumed (nulled) the
        // completed ones, and the entries' destructors key off that.
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            entries_[i]->raw_request() = requests[i];
        }

        int first_error = XMPI_SUCCESS;
        std::vector<char> completed(entries_.size(), 0);
        if (outcount != XMPI_UNDEFINED) {
            for (int k = 0; k < outcount; ++k) {
                completed[static_cast<std::size_t>(indices[k])] = 1;
                if (first_error == XMPI_SUCCESS
                    && statuses[static_cast<std::size_t>(k)].error != XMPI_SUCCESS) {
                    first_error = statuses[static_cast<std::size_t>(k)].error;
                }
            }
        }
        std::size_t slot = 0;
        std::erase_if(entries_, [&](auto const&) { return completed[slot++] != 0; });

        if (err != XMPI_SUCCESS && err != XMPI_ERR_IN_STATUS) {
            internal::throw_on_error(err, "XMPI_Testsome");
        }
        if (first_error != XMPI_SUCCESS) {
            internal::throw_on_error(first_error, "XMPI_Testsome");
        }
        if (!entries_.empty()) {
            xmpi::progress::poll();
        }
        return entries_.empty();
    }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] bool empty() const { return entries_.empty(); }

private:
    struct EntryBase {
        virtual ~EntryBase() = default;
        virtual void wait() = 0;
        virtual bool test() = 0;
        virtual XMPI_Request& raw_request() = 0;
    };
    template <typename... Buffers>
    struct Entry final : EntryBase {
        explicit Entry(NonBlockingResult<Buffers...>&& result) : pending(std::move(result)) {}
        void wait() override { (void)pending.wait(); }
        bool test() override { return pending.test_completed(); }
        XMPI_Request& raw_request() override { return pending.raw_request(); }
        NonBlockingResult<Buffers...> pending;
    };

    std::vector<std::unique_ptr<EntryBase>> entries_;
};

/// @brief Request pool with a fixed number of slots: add() blocks until a
/// slot is free, bounding the number of concurrent non-blocking operations
/// (the extension the paper describes as work in progress in Section III-E:
/// "a request pool with a fixed number of slots, internally maintaining
/// free slots, which allows limiting the number of concurrent non-blocking
/// requests").
class BoundedRequestPool {
public:
    explicit BoundedRequestPool(std::size_t slots) : slots_(slots) {
        KASSERT(slots > 0, "a bounded request pool needs at least one slot");
    }

    /// @brief Transfers a pending operation into the pool; if all slots are
    /// occupied, first drains completed entries and, if none completed yet,
    /// waits for the oldest one.
    template <typename... Buffers>
    void add(NonBlockingResult<Buffers...>&& result) {
        if (pool_.size() >= slots_) {
            pool_.test_all(); // drain already-completed entries first
        }
        if (pool_.size() >= slots_) {
            // Still full: make progress by finishing the current generation
            // (simple and deadlock-free; a slot-precise variant would wait
            // on the oldest entry only).
            pool_.wait_all();
        }
        pool_.add(std::move(result));
    }

    void wait_all() { pool_.wait_all(); }
    [[nodiscard]] std::size_t size() const { return pool_.size(); }
    [[nodiscard]] std::size_t capacity() const { return slots_; }

private:
    std::size_t slots_;
    RequestPool pool_;
};

} // namespace kamping
