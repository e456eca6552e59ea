/// @file test_p2p.cpp
/// @brief Point-to-point semantics of the xmpi substrate: matching,
/// wildcards, ordering, non-blocking completion, probing.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace {

using xmpi::World;

TEST(P2P, BlockingSendRecvDeliversPayload) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> const data{1, 2, 3, 4};
            ASSERT_EQ(
                XMPI_Send(data.data(), 4, XMPI_INT, 1, 7, XMPI_COMM_WORLD), XMPI_SUCCESS);
        } else {
            std::vector<int> data(4, 0);
            XMPI_Status status;
            ASSERT_EQ(
                XMPI_Recv(data.data(), 4, XMPI_INT, 0, 7, XMPI_COMM_WORLD, &status),
                XMPI_SUCCESS);
            EXPECT_EQ(data, (std::vector<int>{1, 2, 3, 4}));
            EXPECT_EQ(status.source, 0);
            EXPECT_EQ(status.tag, 7);
            int count = 0;
            XMPI_Get_count(&status, XMPI_INT, &count);
            EXPECT_EQ(count, 4);
        }
    });
}

TEST(P2P, RecvPostedBeforeSendIsMatched) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 1) {
            // Post the receive first; rank 0 sends after a barrier, so the
            // message must match the posted ticket, not the unexpected queue.
            int value = 0;
            XMPI_Request request;
            XMPI_Irecv(&value, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, &request);
            XMPI_Barrier(XMPI_COMM_WORLD);
            XMPI_Status status;
            XMPI_Wait(&request, &status);
            EXPECT_EQ(value, 99);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            int const value = 99;
            XMPI_Send(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD);
        }
    });
}

TEST(P2P, AnySourceAndAnyTagWildcards) {
    World::run(4, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int received = 0;
            for (int i = 0; i < 3; ++i) {
                int value = -1;
                XMPI_Status status;
                ASSERT_EQ(
                    XMPI_Recv(
                        &value, 1, XMPI_INT, XMPI_ANY_SOURCE, XMPI_ANY_TAG, XMPI_COMM_WORLD,
                        &status),
                    XMPI_SUCCESS);
                EXPECT_EQ(value, status.source * 10 + status.tag);
                ++received;
            }
            EXPECT_EQ(received, 3);
        } else {
            int const value = rank * 10 + rank;
            XMPI_Send(&value, 1, XMPI_INT, 0, rank, XMPI_COMM_WORLD);
        }
    });
}

TEST(P2P, MessagesNonOvertakingPerPair) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        constexpr int kMessages = 100;
        if (rank == 0) {
            for (int i = 0; i < kMessages; ++i) {
                XMPI_Send(&i, 1, XMPI_INT, 1, 3, XMPI_COMM_WORLD);
            }
        } else {
            for (int i = 0; i < kMessages; ++i) {
                int value = -1;
                XMPI_Recv(&value, 1, XMPI_INT, 0, 3, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
                ASSERT_EQ(value, i) << "same-tag messages must arrive in send order";
            }
        }
    });
}

TEST(P2P, TagsSelectMessagesOutOfArrivalOrder) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int const first = 1;
            int const second = 2;
            XMPI_Send(&first, 1, XMPI_INT, 1, /*tag=*/10, XMPI_COMM_WORLD);
            XMPI_Send(&second, 1, XMPI_INT, 1, /*tag=*/20, XMPI_COMM_WORLD);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            int value = 0;
            // Receive the *second* message first by matching its tag.
            XMPI_Recv(&value, 1, XMPI_INT, 0, 20, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(value, 2);
            XMPI_Recv(&value, 1, XMPI_INT, 0, 10, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(value, 1);
        }
        if (rank == 0) {
            XMPI_Barrier(XMPI_COMM_WORLD);
        }
    });
}

TEST(P2P, IsendCompletesImmediatelyAndBufferIsReusable) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int value = 5;
            XMPI_Request request;
            XMPI_Isend(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD, &request);
            int flag = 0;
            XMPI_Test(&request, &flag, XMPI_STATUS_IGNORE);
            EXPECT_EQ(flag, 1) << "eager sends complete at initiation";
            value = 6; // buffer reusable after completion
            XMPI_Send(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD);
        } else {
            int first = 0;
            int second = 0;
            XMPI_Recv(&first, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            XMPI_Recv(&second, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(first, 5);
            EXPECT_EQ(second, 6);
        }
    });
}

TEST(P2P, SsendBlocksUntilMatched) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int const value = 11;
            double const start = XMPI_Wtime();
            ASSERT_EQ(XMPI_Ssend(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD), XMPI_SUCCESS);
            double const elapsed = XMPI_Wtime() - start;
            // The receiver sleeps ~50ms before posting its receive.
            EXPECT_GE(elapsed, 0.02) << "Ssend must block until the receive is posted";
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            int value = 0;
            XMPI_Recv(&value, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(value, 11);
        }
    });
}

TEST(P2P, IssendCompletesOnMatch) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int const value = 3;
            XMPI_Request request;
            XMPI_Issend(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD, &request);
            int flag = 0;
            XMPI_Test(&request, &flag, XMPI_STATUS_IGNORE);
            EXPECT_EQ(flag, 0) << "Issend incomplete before the receive is posted";
            XMPI_Barrier(XMPI_COMM_WORLD); // receiver posts after barrier
            XMPI_Wait(&request, XMPI_STATUS_IGNORE);
            EXPECT_EQ(request, XMPI_REQUEST_NULL);
        } else {
            XMPI_Barrier(XMPI_COMM_WORLD);
            int value = 0;
            XMPI_Recv(&value, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(value, 3);
        }
    });
}

TEST(P2P, SendrecvExchangesSimultaneously) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        int const mine = rank + 100;
        int theirs = -1;
        int const partner = 1 - rank;
        ASSERT_EQ(
            XMPI_Sendrecv(
                &mine, 1, XMPI_INT, partner, 0, &theirs, 1, XMPI_INT, partner, 0,
                XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
            XMPI_SUCCESS);
        EXPECT_EQ(theirs, partner + 100);
    });
}

TEST(P2P, ProbeReportsSizeWithoutConsuming) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<double> const data(17, 1.5);
            XMPI_Send(data.data(), 17, XMPI_DOUBLE, 1, 4, XMPI_COMM_WORLD);
        } else {
            XMPI_Status status;
            ASSERT_EQ(XMPI_Probe(0, 4, XMPI_COMM_WORLD, &status), XMPI_SUCCESS);
            int count = 0;
            XMPI_Get_count(&status, XMPI_DOUBLE, &count);
            ASSERT_EQ(count, 17);
            std::vector<double> data(static_cast<std::size_t>(count));
            XMPI_Recv(
                data.data(), count, XMPI_DOUBLE, 0, 4, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(data.front(), 1.5);
        }
    });
}

TEST(P2P, IprobeReturnsFalseWhenNothingPending) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int flag = 1;
            XMPI_Status status;
            XMPI_Iprobe(1, 0, XMPI_COMM_WORLD, &flag, &status);
            EXPECT_EQ(flag, 0);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(P2P, TruncationIsReported) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> const data(10, 7);
            XMPI_Send(data.data(), 10, XMPI_INT, 1, 0, XMPI_COMM_WORLD);
        } else {
            std::vector<int> data(4, 0);
            XMPI_Status status;
            int const err =
                XMPI_Recv(data.data(), 4, XMPI_INT, 0, 0, XMPI_COMM_WORLD, &status);
            EXPECT_EQ(err, XMPI_ERR_TRUNCATE);
            EXPECT_EQ(data, (std::vector<int>{7, 7, 7, 7})) << "prefix is still delivered";
        }
    });
}

TEST(P2P, TruncationIntoAZeroSizeTypeIsReported) {
    // A nonzero-size message received into a zero-size datatype must report
    // truncation, not divide by the type size.
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int const value = 7;
            ASSERT_EQ(XMPI_Send(&value, 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD), XMPI_SUCCESS);
        } else {
            XMPI_Datatype empty = nullptr;
            ASSERT_EQ(XMPI_Type_contiguous(0, XMPI_INT, &empty), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Type_commit(&empty), XMPI_SUCCESS);
            std::vector<int> data(4, -1);
            EXPECT_EQ(
                XMPI_Recv(data.data(), 4, empty, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_ERR_TRUNCATE);
            EXPECT_EQ(data, (std::vector<int>(4, -1))) << "no element fits a zero-size type";
            XMPI_Type_free(&empty);
        }
    });
}

TEST(P2P, ProcNullIsNoOp) {
    World::run(1, [] {
        int const value = 1;
        EXPECT_EQ(XMPI_Send(&value, 1, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD), XMPI_SUCCESS);
        int sink = -1;
        XMPI_Status status;
        EXPECT_EQ(
            XMPI_Recv(&sink, 1, XMPI_INT, XMPI_PROC_NULL, 0, XMPI_COMM_WORLD, &status),
            XMPI_SUCCESS);
        EXPECT_EQ(sink, -1) << "PROC_NULL receive must not touch the buffer";
        EXPECT_EQ(status.source, XMPI_PROC_NULL);
    });
}

TEST(P2P, InvalidRankIsRejected) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int const value = 1;
            EXPECT_EQ(XMPI_Send(&value, 1, XMPI_INT, 5, 0, XMPI_COMM_WORLD), XMPI_ERR_RANK);
            int sink = 0;
            EXPECT_EQ(
                XMPI_Recv(&sink, 1, XMPI_INT, -7, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE),
                XMPI_ERR_RANK);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(P2P, CancelPendingReceive) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int sink = 0;
            XMPI_Request request;
            XMPI_Irecv(&sink, 1, XMPI_INT, 1, 42, XMPI_COMM_WORLD, &request);
            EXPECT_EQ(XMPI_Cancel(&request), XMPI_SUCCESS);
            XMPI_Request_free(&request);
            EXPECT_EQ(request, XMPI_REQUEST_NULL);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(P2P, WaitallCompletesMixedRequests) {
    World::run(3, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            std::vector<int> values(2, -1);
            std::vector<XMPI_Request> requests(2);
            XMPI_Irecv(&values[0], 1, XMPI_INT, 1, 0, XMPI_COMM_WORLD, &requests[0]);
            XMPI_Irecv(&values[1], 1, XMPI_INT, 2, 0, XMPI_COMM_WORLD, &requests[1]);
            std::vector<XMPI_Status> statuses(2);
            ASSERT_EQ(XMPI_Waitall(2, requests.data(), statuses.data()), XMPI_SUCCESS);
            EXPECT_EQ(values[0], 100);
            EXPECT_EQ(values[1], 200);
            EXPECT_EQ(statuses[0].source, 1);
            EXPECT_EQ(statuses[1].source, 2);
        } else {
            int const value = rank * 100;
            XMPI_Send(&value, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD);
        }
    });
}

TEST(P2P, WaitanyReturnsACompletedIndex) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        if (rank == 0) {
            int value_fast = -1;
            int value_never = -1;
            XMPI_Request requests[2];
            XMPI_Irecv(&value_never, 1, XMPI_INT, 1, 1, XMPI_COMM_WORLD, &requests[0]);
            XMPI_Irecv(&value_fast, 1, XMPI_INT, 1, 2, XMPI_COMM_WORLD, &requests[1]);
            int index = -1;
            XMPI_Status status;
            ASSERT_EQ(XMPI_Waitany(2, requests, &index, &status), XMPI_SUCCESS);
            EXPECT_EQ(index, 1) << "only the tag-2 message was sent";
            EXPECT_EQ(value_fast, 55);
            XMPI_Cancel(&requests[0]);
            XMPI_Request_free(&requests[0]);
        } else {
            int const value = 55;
            XMPI_Send(&value, 1, XMPI_INT, 0, 2, XMPI_COMM_WORLD);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
    });
}

TEST(P2P, SelfSendIsSupported) {
    World::run(1, [] {
        int const out = 77;
        XMPI_Send(&out, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD);
        int in = 0;
        XMPI_Recv(&in, 1, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
        EXPECT_EQ(in, 77);
    });
}

TEST(P2P, DerivedTypeTransferConvertsLayouts) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        // Sender uses a strided view, receiver stores densely.
        if (rank == 0) {
            XMPI_Datatype strided = nullptr;
            XMPI_Type_vector(3, 1, 2, XMPI_INT, &strided);
            XMPI_Type_commit(&strided);
            std::vector<int> const data{1, 0, 2, 0, 3, 0};
            XMPI_Send(data.data(), 1, strided, 1, 0, XMPI_COMM_WORLD);
            XMPI_Type_free(&strided);
        } else {
            std::vector<int> dense(3, 0);
            XMPI_Recv(dense.data(), 3, XMPI_INT, 0, 0, XMPI_COMM_WORLD, XMPI_STATUS_IGNORE);
            EXPECT_EQ(dense, (std::vector<int>{1, 2, 3}));
        }
    });
}

TEST(P2P, UsageOutsideWorldThrows) {
    EXPECT_THROW((void)XMPI_COMM_WORLD, xmpi::UsageError);
}

} // namespace
