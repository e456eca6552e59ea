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
#pragma once

#include "kamping/error.hpp"
#include "kamping/pipeline.hpp"
#include "kamping/plugin/agreed_retry.hpp"
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

    /// @brief One recovery step: revoke the communicator (unless already
    /// revoked) and replace it, in place, by its shrunken successor.
    void revoke_and_shrink() {
        if (!is_revoked()) {
            revoke();
        }
        this->self() = shrink();
    }

    /// @brief Runs @c body(comm) and, whenever it fails with a recoverable
    /// ULFM error (process failure or revoked communicator) on any surviving
    /// member, performs revoke_and_shrink() and re-runs it on the survivor
    /// communicator — the whole of the paper's Fig. 12 recovery loop in one
    /// call. The members agree on each attempt's outcome before returning
    /// (see agreed_retry.hpp), so either every survivor returns the same
    /// attempt's result or every survivor recovers. Works for rooted and
    /// non-rooted collectives alike: @c body receives the current
    /// communicator, so it can re-derive roots from the shrunken size/rank.
    ///
    /// @param body        Callable taking `Comm&`; its return value is
    ///                    forwarded (by value) on success.
    /// @param max_attempts Bound on total attempts; defaults (-1) to
    ///                    initial size + 1, enough for every member failing
    ///                    one by one. Throws MpiError(XMPI_ERR_OTHER) when
    ///                    exhausted. Non-recoverable errors propagate as-is.
    template <typename Body>
    auto shrink_and_retry(Body&& body, int max_attempts = -1) {
        int const attempts = max_attempts > 0 ? max_attempts : this->self().size() + 1;
        return detail::agreed_retry(
            this->self(), body, attempts,
            [](MpiError const& error) {
                return error.error_code() == XMPI_ERR_PROC_FAILED
                       || error.error_code() == XMPI_ERR_REVOKED;
            },
            [] { return false; }, [&] { recover(); }, "shrink_and_retry: attempts exhausted");
    }

private:
    /// @brief One traced recovery round: the span (op "ulfm_recovery")
    /// makes the cost of revoke+shrink attributable in traced runs.
    void recover() {
        kamping::internal::CollectivePlan<kamping::internal::plan_ops::ulfm_recovery> plan(
            this->self().mpi_communicator());
        revoke_and_shrink();
    }
};

} // namespace kamping::plugin
