/// @file sparse_alltoall.hpp
/// @brief SparseAlltoall plugin: personalized all-to-all for sparse,
/// dynamically changing communication patterns (paper, Section V-A).
///
/// MPI_Alltoallv needs a counts array with one entry per rank — Omega(p)
/// local work and, in xmpi's pairwise implementation, Theta(p) message
/// start-ups even when only a handful of peers receive data. This plugin
/// accepts a set of destination/message pairs instead and exchanges them
/// with the NBX algorithm of Hoefler, Siebert and Lumsdaine (PPoPP 2010):
/// synchronous-mode sends + a non-blocking barrier give O(out-degree)
/// messages and O(log p) barrier latency, with no pre-negotiation of
/// communication partners.
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kamping/error.hpp"
#include "kamping/mpi_datatype.hpp"
#include "kamping/pipeline.hpp"
#include "kamping/plugin/plugin_helpers.hpp"
#include "xmpi/api.hpp"

namespace kamping::plugin {

namespace internal {
/// Tag base reserved for NBX traffic so it never collides with user
/// messages; the round counter is mixed in to separate back-to-back
/// exchanges (a fast rank may start round k+1 while a slow one still
/// drains round k).
inline constexpr int nbx_tag_base = 23107;
inline constexpr int nbx_tag_rounds = 4096;
} // namespace internal

template <typename Comm>
class SparseAlltoall : public PluginBase<Comm, SparseAlltoall> {
public:
    /// @brief Exchanges destination/message pairs; invokes
    /// @c on_message(source, payload) for every received message.
    /// Message arrival order is unspecified (as in any sparse exchange).
    template <typename T, typename Callback>
    void alltoallv_sparse(
        std::unordered_map<int, std::vector<T>> const& messages, Callback&& on_message) const {
        static_assert(
            has_static_type<T>, "sparse alltoall requires statically typed elements");
        auto const& comm = this->self();
        XMPI_Comm const handle = comm.mpi_communicator();
        kamping::internal::CollectivePlan<kamping::internal::plan_ops::sparse_alltoallv> plan(
            handle);
        // NBX never pre-negotiates counts: receivers discover message sizes
        // by probing, which is this plan's count exchange.
        plan.note_count_exchange();
        // The round counter only stays in lockstep across ranks while every
        // exchange runs to completion. A rank failure can interrupt a round
        // after some ranks entered it and others did not, leaving the
        // counters divergent on the survivors — and any such interruption
        // forces a membership-epoch change. Keying the counter by the epoch
        // restarts every surviving rank from round 0 of the new epoch, so
        // post-recovery exchanges agree on tags again.
        std::uint64_t epoch = 0;
        XMPI_Membership_epoch(handle, &epoch);
        if (epoch != nbx_epoch_) {
            nbx_epoch_ = epoch;
            nbx_round_ = 0;
        }
        int const round_tag =
            internal::nbx_tag_base
            + static_cast<int>(
                (epoch * 61 + static_cast<std::uint64_t>(nbx_round_++))
                % internal::nbx_tag_rounds);

        // Phase 1: issue all sends in synchronous mode — an Issend completes
        // only when matched, which is what lets NBX detect global quiescence.
        std::vector<XMPI_Request> send_requests;
        send_requests.reserve(messages.size());
        XMPI_Request barrier_request = XMPI_REQUEST_NULL;
        // A dispatch that throws mid-round (a revoke, a chaos kill) leaves
        // requests outstanding: free them on the way out. A round that runs
        // to completion has consumed every one of them.
        struct FreeOutstanding {
            std::vector<XMPI_Request>& sends;
            XMPI_Request& barrier;
            ~FreeOutstanding() {
                auto const free = [](XMPI_Request& request) {
                    if (request != XMPI_REQUEST_NULL) {
                        XMPI_Request_free(&request);
                    }
                };
                std::for_each(sends.begin(), sends.end(), free);
                free(barrier);
            }
        } const free_outstanding{send_requests, barrier_request};
        for (auto const& [destination, payload]: messages) {
            XMPI_Request request = XMPI_REQUEST_NULL;
            plan.note_bytes_in(payload.size() * sizeof(T));
            plan.dispatch("XMPI_Issend", [&] {
                return XMPI_Issend(
                    payload.data(), static_cast<int>(payload.size()), mpi_datatype<T>(),
                    destination, round_tag, handle, &request);
            });
            send_requests.push_back(request);
        }

        // Phase 2: receive whatever arrives; once all local sends matched,
        // enter the non-blocking barrier; once the barrier completes, every
        // rank's sends have been received and we are done.
        bool barrier_activated = false;
        while (true) {
            int flag = 0;
            xmpi::Status status;
            plan.dispatch(
                "XMPI_Iprobe",
                [&] { return XMPI_Iprobe(XMPI_ANY_SOURCE, round_tag, handle, &flag, &status); },
                kamping::internal::PlanStage::infer_counts);
            if (flag == 0) {
                // Idle poll: hand the core to other ranks (on real MPI the
                // progress engine does the equivalent).
                std::this_thread::yield();
            }
            if (flag != 0) {
                int type_size = 0;
                XMPI_Type_size(mpi_datatype<T>(), &type_size);
                int const count = status.count(static_cast<std::size_t>(type_size));
                std::vector<T> payload(static_cast<std::size_t>(count));
                plan.note_bytes_out(payload.size() * sizeof(T));
                plan.dispatch("XMPI_Recv", [&] {
                    return XMPI_Recv(
                        payload.data(), count, mpi_datatype<T>(), status.source,
                        round_tag, handle, XMPI_STATUS_IGNORE);
                });
                on_message(status.source, std::move(payload));
            }
            if (!barrier_activated) {
                int all_sent = 0;
                plan.dispatch("XMPI_Testall", [&] {
                    return XMPI_Testall(
                        static_cast<int>(send_requests.size()), send_requests.data(), &all_sent,
                        XMPI_STATUSES_IGNORE);
                });
                if (all_sent != 0) {
                    plan.dispatch(
                        "XMPI_Ibarrier", [&] { return XMPI_Ibarrier(handle, &barrier_request); });
                    barrier_activated = true;
                }
            } else {
                int done = 0;
                plan.dispatch("XMPI_Test", [&] {
                    return XMPI_Test(&barrier_request, &done, XMPI_STATUS_IGNORE);
                });
                if (done != 0) {
                    break;
                }
            }
        }
    }

    /// @brief Convenience overload collecting the received messages into a
    /// source -> payload map.
    template <typename T>
    [[nodiscard]] std::unordered_map<int, std::vector<T>> alltoallv_sparse(
        std::unordered_map<int, std::vector<T>> const& messages) const {
        std::unordered_map<int, std::vector<T>> received;
        alltoallv_sparse(messages, [&](int source, std::vector<T> payload) {
            auto& slot = received[source];
            if (slot.empty()) {
                slot = std::move(payload);
            } else {
                // Multiple messages from one source concatenate.
                slot.insert(slot.end(), payload.begin(), payload.end());
            }
        });
        return received;
    }

private:
    /// NBX round counter within the current membership epoch. Within one
    /// epoch every exchange completes collectively, so the counter advances
    /// identically on all ranks; across epochs it is reset (see above).
    mutable int nbx_round_ = 0;
    mutable std::uint64_t nbx_epoch_ = 0;
};

} // namespace kamping::plugin
