/// @file agreed_retry.hpp
/// @brief The one recovery loop behind UserLevelFailureMitigation::
/// shrink_and_retry and Elastic::with_elastic: re-run a body until it
/// succeeded on every surviving member in the same attempt.
#pragma once

#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "kamping/error.hpp"
#include "xmpi/api.hpp"

namespace kamping::plugin::detail {

/// @brief Runs @c body(comm) until one attempt succeeds on every surviving
/// member of @c comm, calling @c recover() after each attempt that did not.
///
/// An attempt fails on a rank when @c body throws an MpiError for which
/// @c recoverable(error) holds (any other exception propagates), or when
/// @c stale() holds after it returned. After every attempt the members agree
/// (XMPI_Comm_agree: the AND over the survivors, which completes despite
/// failures and revocation) on whether the attempt succeeded everywhere;
/// only then does any rank return. Returning on local success alone would
/// strand a peer whose attempt failed: it would wait in recovery for a rank
/// that has already left.
///
/// @return The body's result by value (nothing for a void body).
/// Throws MpiError(XMPI_ERR_OTHER, @c exhausted) after @c attempts attempts.
template <typename Comm, typename Body, typename Recoverable, typename Stale, typename Recover>
auto agreed_retry(
    Comm& comm, Body& body, int attempts, Recoverable&& recoverable, Stale&& stale,
    Recover&& recover, char const* exhausted) {
    using Result = std::invoke_result_t<Body&, Comm&>;
    using Value = std::conditional_t<std::is_void_v<Result>, std::monostate, std::decay_t<Result>>;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        std::optional<Value> value;
        try {
            if constexpr (std::is_void_v<Result>) {
                body(comm);
                value.emplace();
            } else {
                value.emplace(body(comm));
            }
        } catch (MpiError const& error) {
            if (!recoverable(error)) {
                throw;
            }
        }
        int succeeded = value.has_value() && !stale() ? 1 : 0;
        if (int const err = XMPI_Comm_agree(comm.mpi_communicator(), &succeeded);
            err != XMPI_SUCCESS) {
            throw MpiError(err, "XMPI_Comm_agree");
        }
        if (succeeded != 0) {
            if constexpr (std::is_void_v<Result>) {
                return;
            } else {
                return std::move(*value);
            }
        }
        recover();
    }
    throw MpiError(XMPI_ERR_OTHER, exhausted);
}

} // namespace kamping::plugin::detail
