#include "xmpi/request.hpp"

#include "transport.hpp"
#include "xmpi/comm.hpp"
#include "xmpi/error.hpp"
#include "xmpi/mailbox.hpp"
#include "xmpi/world.hpp"

namespace xmpi::detail {

bool SyncRequest::test(Status& status) {
    if (handle_->matched.load(std::memory_order_acquire)) {
        status = Status{UNDEFINED, UNDEFINED, XMPI_SUCCESS, 0};
        return true;
    }
    if (comm_ != nullptr && (comm_->revoked() || comm_->any_member_failed())) {
        status = Status{
            UNDEFINED, UNDEFINED, comm_->revoked() ? XMPI_ERR_REVOKED : XMPI_ERR_PROC_FAILED, 0};
        return true;
    }
    return false;
}

void SyncRequest::wait(Status& status) {
    wait_until(handle_->sender, [&] { return test(status); });
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
    int const err =
        recv_abort_error(*ticket_->comm, ticket_->pattern.context, ticket_->pattern.source);
    if (err == XMPI_SUCCESS) {
        return false;
    }
    if (!mailbox_->cancel(ticket_)) {
        // Completed concurrently after all; report the real status.
        status = ticket_->status;
        return true;
    }
    status = Status{UNDEFINED, UNDEFINED, err, 0};
    ticket_->status = status;
    ticket_->complete = true;
    return true;
}

void RecvRequest::wait(Status& status) {
    auto const abort_error = [&] {
        return recv_abort_error(*ticket_->comm, ticket_->pattern.context, ticket_->pattern.source);
    };
    if (mailbox_->await(ticket_, [&] { return abort_error() != XMPI_SUCCESS; })) {
        status = ticket_->status;
        return;
    }
    status = Status{UNDEFINED, UNDEFINED, abort_error(), 0};
}

bool RecvRequest::cancel() {
    return mailbox_->cancel(ticket_);
}

bool IbarrierRequest::test(Status& status) {
    auto& sync = comm_->ibarrier_sync();
    std::lock_guard lock(sync.mutex);
    if (sync.completed_rounds > round_) {
        status = Status{UNDEFINED, UNDEFINED, XMPI_SUCCESS, 0};
        return true;
    }
    if (comm_->revoked() || comm_->any_member_failed()) {
        status = Status{
            UNDEFINED, UNDEFINED, comm_->revoked() ? XMPI_ERR_REVOKED : XMPI_ERR_PROC_FAILED, 0};
        return true;
    }
    return false;
}

void IbarrierRequest::wait(Status& status) {
    wait_until(current_context(), [&] { return test(status); });
}

} // namespace xmpi::detail
