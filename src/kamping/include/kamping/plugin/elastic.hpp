/// @file elastic.hpp
/// @brief Elastic plugin: rides a communicator across membership epochs of
/// an elastic world (xmpi/elastic.hpp) — dynamic grow, shrink, *and* failure
/// behind one rebalance loop.
///
/// with_elastic is the library's one recovery loop. Where the ULFM plugin's
/// revoke/shrink vocabulary only handles the failure direction (membership
/// can shrink), any membership change of an elastic world — a thread
/// joining via World::open_session, a rank retiring via leave_session, or a
/// rank dying — revokes the current epoch's communicator, the loop resyncs
/// to the fresh epoch, and the user's body re-runs on the new membership:
///
///   comm.with_elastic([&](auto& c) {
///       rebalance(c.rank(), c.size());   // membership may have changed
///       c.allreduce(...);
///   });
///
/// Traced runs label each resync with the transition cause ("grow",
/// "shrink", "failure", combinations) in the elastic_sync span's algorithm
/// field, and every span carries the membership epoch it ran under.
#pragma once

#include <cstdint>

#include "kamping/error.hpp"
#include "kamping/pipeline.hpp"
#include "kamping/plugin/plugin_helpers.hpp"
#include "xmpi/api.hpp"

namespace kamping::plugin {

template <typename Comm>
class Elastic : public PluginBase<Comm, Elastic> {
public:
    /// @brief The membership epoch of the underlying world (0 until the
    /// first transition; constant 0 in non-elastic worlds).
    [[nodiscard]] std::uint64_t membership_epoch() const {
        std::uint64_t epoch = 0;
        XMPI_Membership_epoch(this->self().mpi_communicator(), &epoch);
        return epoch;
    }

    /// @brief True iff this communicator no longer matches the world's
    /// membership (superseded epoch, or a transition is pending) — i.e. a
    /// sync_membership() is due.
    [[nodiscard]] bool membership_changed() const {
        int flag = 0;
        XMPI_Membership_changed(this->self().mpi_communicator(), &flag);
        return flag != 0;
    }

    /// @brief Joins the membership-epoch rendezvous and replaces this
    /// communicator, in place, by the current epoch's communicator. Traced
    /// as an elastic_sync span whose algorithm field carries the transition
    /// cause ("grow", "shrink", "failure", "+"-combinations).
    void sync_membership() {
        kamping::internal::CollectivePlan<kamping::internal::plan_ops::elastic_sync> plan(
            this->self().mpi_communicator());
        XMPI_Comm fresh = XMPI_COMM_NULL;
        plan.dispatch("XMPI_Epoch_sync", [&] { return XMPI_Epoch_sync(&fresh); });
        xmpi::profile::note_algorithm(fresh->world().last_transition_cause());
        this->self() = Comm(fresh, /*owning=*/true);
    }

    /// @brief Runs @c body(comm) on the current membership and re-runs it
    /// whenever the membership changes underneath it — the paper's Fig. 12
    /// revoke/shrink/retry loop, generalized to grow and shrink. Before each
    /// attempt the loop resyncs if a change is already pending; an attempt
    /// aborted by a recoverable error (stale epoch, revocation, process
    /// failure — the three faces of a membership transition) triggers a
    /// resync and a retry on the fresh epoch's communicator. @c body
    /// observes changes through the communicator it receives
    /// (rank/size/epoch).
    ///
    /// @param body        Callable taking `Comm&`; its return value is
    ///                    forwarded on success.
    /// @param max_resyncs Bound on attempts; defaults (-1) to three times
    ///                    the world capacity + 1 (every slot can join, leave
    ///                    or fail at most once, so that bounds the epochs a
    ///                    single body run can possibly ride through). Throws
    ///                    MpiError(XMPI_ERR_OTHER) when exhausted.
    template <typename Body>
    decltype(auto) with_elastic(Body&& body, int max_resyncs = -1) {
        int const capacity = this->self().mpi_communicator()->world().capacity();
        int const attempts = max_resyncs > 0 ? max_resyncs : 3 * capacity + 1;
        for (int attempt = 0; attempt < attempts; ++attempt) {
            if (membership_changed()) {
                sync_membership();
            }
            try {
                return body(this->self());
            } catch (MpiEpochStale const&) {
                // Superseded epoch: resync below and retry.
            } catch (MpiCommRevoked const&) {
                // A join/leave revoked the epoch mid-operation.
            } catch (MpiFailureDetected const&) {
                // A member died; the transition excludes it.
            }
            sync_membership();
        }
        throw MpiError(XMPI_ERR_OTHER, "with_elastic: membership resyncs exhausted");
    }
};

} // namespace kamping::plugin
