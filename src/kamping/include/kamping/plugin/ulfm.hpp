/// @file ulfm.hpp
/// @brief UserLevelFailureMitigation plugin (paper, Section V-B): an
/// abstraction layer over ULFM that surfaces process failures as idiomatic
/// C++ exceptions instead of return codes.
///
/// The core wrappers already convert XMPI_ERR_PROC_FAILED /
/// XMPI_ERR_REVOKED into kamping::MpiFailureDetected / MpiCommRevoked; this
/// plugin adds the recovery vocabulary (revoke, shrink, agree) so
/// fault-tolerant algorithms read like the paper's Fig. 12:
///
///   try {
///       comm.allreduce(...);
///   } catch (MpiFailureDetected const&) {
///       if (!comm.is_revoked()) comm.revoke();
///       comm = comm.shrink();
///   }
///
/// The packaged form of that loop is Elastic::with_elastic
/// (plugin/elastic.hpp): on an elastic world a failure is one kind of
/// membership transition, and the loop re-runs the body on the survivors.
#pragma once

#include "kamping/error.hpp"
#include "kamping/pipeline.hpp"
#include "kamping/plugin/plugin_helpers.hpp"
#include "xmpi/api.hpp"

namespace kamping::plugin {

template <typename Comm>
class UserLevelFailureMitigation : public PluginBase<Comm, UserLevelFailureMitigation> {
public:
    /// @brief True iff the communicator has been revoked.
    [[nodiscard]] bool is_revoked() const {
        int flag = 0;
        XMPI_Comm_is_revoked(this->self().mpi_communicator(), &flag);
        return flag != 0;
    }

    /// @brief Revokes the communicator: every pending and future operation
    /// on it (except shrink/agree) fails with MpiCommRevoked on all ranks.
    void revoke() {
        kamping::internal::CollectivePlan<kamping::internal::plan_ops::ulfm_recovery> plan(
            this->self().mpi_communicator());
        plan.dispatch(
            "XMPI_Comm_revoke", [&] { return XMPI_Comm_revoke(this->self().mpi_communicator()); });
    }

    /// @brief Builds a new communicator containing only the surviving
    /// processes (collective over the survivors).
    [[nodiscard]] Comm shrink() {
        kamping::internal::CollectivePlan<kamping::internal::plan_ops::ulfm_recovery> plan(
            this->self().mpi_communicator());
        XMPI_Comm shrunken = XMPI_COMM_NULL;
        plan.dispatch("XMPI_Comm_shrink", [&] {
            return XMPI_Comm_shrink(this->self().mpi_communicator(), &shrunken);
        });
        return Comm(shrunken, /*owning=*/true);
    }

    /// @brief Fault-tolerant agreement: bitwise AND of @c flag over the
    /// surviving ranks; completes even with failed or revoked members.
    [[nodiscard]] int agree(int flag) {
        kamping::internal::CollectivePlan<kamping::internal::plan_ops::ulfm_recovery> plan(
            this->self().mpi_communicator());
        plan.dispatch(
            "XMPI_Comm_agree",
            [&] { return XMPI_Comm_agree(this->self().mpi_communicator(), &flag); });
        return flag;
    }
};

} // namespace kamping::plugin
