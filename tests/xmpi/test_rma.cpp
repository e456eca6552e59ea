/// @file test_rma.cpp
/// @brief One-sided communication at the transport layer: window
/// creation/destruction, fence (active-target) and lock/unlock
/// (passive-target) epochs, put/get/accumulate semantics, the validation
/// sweep (rank/displacement/bounds/epoch errors), profile counters, and the
/// chaos failure paths (a rank dying mid-fence or while holding a lock).
///
/// Epoch discipline matters for the thread sanitizer here: a rank reads its
/// own window memory only after the synchronization call that completes the
/// remote ops targeting it (fence's barrier or an XMPI_Barrier ordered after
/// the peer's unlock) — exactly the happens-before edges the implementation
/// promises.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "xmpi/profile.hpp"
#include "xmpi/xmpi.hpp"

namespace {

namespace chaos = xmpi::chaos;
using xmpi::World;

/// @brief Creates a window over @c storage with disp_unit sizeof(int).
XMPI_Win make_int_win(std::vector<int>& storage) {
    XMPI_Win win = XMPI_WIN_NULL;
    int const err = XMPI_Win_create(
        storage.data(), static_cast<XMPI_Aint>(storage.size() * sizeof(int)),
        static_cast<int>(sizeof(int)), XMPI_COMM_WORLD, &win);
    EXPECT_EQ(err, XMPI_SUCCESS);
    EXPECT_NE(win, XMPI_WIN_NULL);
    return win;
}

// ---------------------------------------------------------------------------
// Active target: fence epochs
// ---------------------------------------------------------------------------

// Ring put: each rank writes its rank id into the right neighbour's window.
// The value must be visible after the closing fence, not before the opening
// one (puts are queued until synchronization).
TEST(Rma, PutVisibleAfterClosingFence) {
    constexpr int p = 4;
    World::run(p, [] {
        int rank = -1;
        int size = 0;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        XMPI_Comm_size(XMPI_COMM_WORLD, &size);
        std::vector<int> window_mem(2, -1);
        XMPI_Win win = make_int_win(window_mem);

        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS); // open epoch
        int const right = (rank + 1) % size;
        std::vector<int> origin{rank, rank + 100};
        ASSERT_EQ(
            XMPI_Put(origin.data(), 2, XMPI_INT, right, 0, 2, XMPI_INT, win),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS); // close epoch

        int const left = (rank + size - 1) % size;
        EXPECT_EQ(window_mem[0], left);
        EXPECT_EQ(window_mem[1], left + 100);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
        EXPECT_EQ(win, XMPI_WIN_NULL);
    });
}

// Get through a fence epoch, with a non-zero target displacement.
TEST(Rma, GetReadsRemoteWindowAtDisplacement) {
    constexpr int p = 3;
    World::run(p, [] {
        int rank = -1;
        int size = 0;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        XMPI_Comm_size(XMPI_COMM_WORLD, &size);
        std::vector<int> window_mem{10 * rank, 10 * rank + 1, 10 * rank + 2};
        XMPI_Win win = make_int_win(window_mem);

        // The opening fence also orders everyone's initialisation of their
        // window memory before any remote read.
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        int const right = (rank + 1) % size;
        int fetched = -1;
        ASSERT_EQ(
            XMPI_Get(&fetched, 1, XMPI_INT, right, 2, 1, XMPI_INT, win),
            XMPI_SUCCESS);
        EXPECT_EQ(fetched, -1) << "get must not complete before the fence";
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        EXPECT_EQ(fetched, 10 * right + 2);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// Every rank accumulates into rank 0's single-slot window with XMPI_SUM;
// accumulate is applied atomically per target, so the sum is exact.
TEST(Rma, AccumulateSumsContributionsAtomically) {
    constexpr int p = 5;
    World::run(p, [] {
        int rank = -1;
        int size = 0;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        XMPI_Comm_size(XMPI_COMM_WORLD, &size);
        std::vector<int> window_mem(1, 0);
        XMPI_Win win = make_int_win(window_mem);

        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        int const contribution = rank + 1;
        for (int i = 0; i < 3; ++i) {
            ASSERT_EQ(
                XMPI_Accumulate(
                    &contribution, 1, XMPI_INT, 0, 0, 1, XMPI_INT, XMPI_SUM, win),
                XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        if (rank == 0) {
            EXPECT_EQ(window_mem[0], 3 * size * (size + 1) / 2);
        }
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// ---------------------------------------------------------------------------
// Passive target: lock / unlock epochs
// ---------------------------------------------------------------------------

// Exclusive lock + put + unlock; the target reads after a barrier ordered
// behind the origin's unlock (which drains the pending put).
TEST(Rma, ExclusiveLockPutUnlockCompletesAtUnlock) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        std::vector<int> window_mem(1, -1);
        XMPI_Win win = make_int_win(window_mem);
        // win_create's closing barrier orders window initialisation.
        if (rank == 0) {
            ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 1, 0, win), XMPI_SUCCESS);
            int const value = 42;
            ASSERT_EQ(
                XMPI_Put(&value, 1, XMPI_INT, 1, 0, 1, XMPI_INT, win),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Win_unlock(1, win), XMPI_SUCCESS);
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 1) {
            EXPECT_EQ(window_mem[0], 42);
        }
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// All ranks take a *shared* lock on rank 0 and meet inside a barrier while
// holding it: shared locks must be concurrently holdable (an exclusive lock
// here would deadlock the barrier).
TEST(Rma, SharedLocksAreHeldConcurrently) {
    static constexpr int p = 4; // static: odr-used inside the capture-less lambda
    static std::atomic<int> holders{0};
    holders.store(0);
    World::run(p, [] {
        std::vector<int> window_mem(1, 0);
        XMPI_Win win = make_int_win(window_mem);
        ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_SHARED, 0, 0, win), XMPI_SUCCESS);
        holders.fetch_add(1);
        XMPI_Barrier(XMPI_COMM_WORLD); // everyone is inside the shared lock
        EXPECT_EQ(holders.load(), p);
        XMPI_Barrier(XMPI_COMM_WORLD); // keep the count stable for the check
        holders.fetch_sub(1);
        ASSERT_EQ(XMPI_Win_unlock(0, win), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// Exclusive locks on the same target are mutually exclusive: a probe counter
// incremented inside the critical section must never observe a second
// holder.
TEST(Rma, ExclusiveLocksAreMutuallyExclusive) {
    constexpr int p = 4;
    static std::atomic<int> inside{0};
    inside.store(0);
    World::run(p, [] {
        std::vector<int> window_mem(1, 0);
        XMPI_Win win = make_int_win(window_mem);
        for (int i = 0; i < 8; ++i) {
            ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 0, 0, win), XMPI_SUCCESS);
            EXPECT_EQ(inside.fetch_add(1), 0) << "two ranks inside an exclusive lock";
            EXPECT_EQ(inside.fetch_sub(1), 1);
            ASSERT_EQ(XMPI_Win_unlock(0, win), XMPI_SUCCESS);
        }
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// Exclusive lock also serialises *data* access: lock-get-modify-put-unlock
// from every rank yields an exact counter, the canonical passive-target
// read-modify-write.
TEST(Rma, LockedReadModifyWriteIsExact) {
    constexpr int p = 4;
    constexpr int rounds = 5;
    World::run(p, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        std::vector<int> window_mem(1, 0);
        XMPI_Win win = make_int_win(window_mem);
        for (int i = 0; i < rounds; ++i) {
            ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 0, 0, win), XMPI_SUCCESS);
            int value = -1;
            ASSERT_EQ(XMPI_Get(&value, 1, XMPI_INT, 0, 0, 1, XMPI_INT, win), XMPI_SUCCESS);
            // A get completes at the next synchronization of this epoch; to
            // read-modify-write inside one lock we need an intermediate
            // flush — re-locking is the portable spelling, but our unlock
            // already drains, so split into two locked epochs.
            ASSERT_EQ(XMPI_Win_unlock(0, win), XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 0, 0, win), XMPI_SUCCESS);
            int const one = 1;
            ASSERT_EQ(
                XMPI_Accumulate(&one, 1, XMPI_INT, 0, 0, 1, XMPI_INT, XMPI_SUM, win),
                XMPI_SUCCESS);
            ASSERT_EQ(XMPI_Win_unlock(0, win), XMPI_SUCCESS);
            (void)value;
        }
        XMPI_Barrier(XMPI_COMM_WORLD);
        if (rank == 0) {
            EXPECT_EQ(window_mem[0], p * rounds);
        }
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// ---------------------------------------------------------------------------
// Validation sweep
// ---------------------------------------------------------------------------

TEST(Rma, ValidationErrorsAreReported) {
    World::run(2, [] {
        std::vector<int> window_mem(4, 0);
        XMPI_Win win = make_int_win(window_mem);
        int value = 7;

        // No epoch open yet: any op is a synchronization error.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 0, 0, 1, XMPI_INT, win),
            XMPI_ERR_RMA_SYNC);

        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        // Target rank out of range.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 5, 0, 1, XMPI_INT, win), XMPI_ERR_RANK);
        EXPECT_EQ(
            XMPI_Get(&value, 1, XMPI_INT, -3, 0, 1, XMPI_INT, win), XMPI_ERR_RANK);
        // Negative displacement.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 1, -1, 1, XMPI_INT, win), XMPI_ERR_ARG);
        // Displacement beyond the exposed region.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 1, 4, 1, XMPI_INT, win),
            XMPI_ERR_RMA_RANGE);
        EXPECT_EQ(
            XMPI_Get(&value, 1, XMPI_INT, 1, 3, 2, XMPI_INT, win),
            XMPI_ERR_RMA_RANGE);
        // Mismatched origin/target payload sizes.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 1, 0, 2, XMPI_INT, win), XMPI_ERR_COUNT);
        // Negative count / null op.
        EXPECT_EQ(
            XMPI_Put(&value, -1, XMPI_INT, 1, 0, 1, XMPI_INT, win), XMPI_ERR_COUNT);
        EXPECT_EQ(
            XMPI_Accumulate(
                &value, 1, XMPI_INT, 1, 0, 1, XMPI_INT, XMPI_OP_NULL, win),
            XMPI_ERR_OP);
        // PROC_NULL target: a successful no-op.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, XMPI_PROC_NULL, 0, 1, XMPI_INT, win),
            XMPI_SUCCESS);
        // Null window handle.
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 0, 0, 1, XMPI_INT, XMPI_WIN_NULL),
            XMPI_ERR_WIN);
        EXPECT_EQ(XMPI_Win_fence(0, XMPI_WIN_NULL), XMPI_ERR_WIN);
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

TEST(Rma, LockEpochMisuseIsRejected) {
    World::run(2, [] {
        std::vector<int> window_mem(1, 0);
        XMPI_Win win = make_int_win(window_mem);

        // Bad lock type / bad rank.
        EXPECT_EQ(XMPI_Win_lock(99, 0, 0, win), XMPI_ERR_ARG);
        EXPECT_EQ(XMPI_Win_lock(XMPI_LOCK_SHARED, 7, 0, win), XMPI_ERR_RANK);
        // Unlock without a lock.
        EXPECT_EQ(XMPI_Win_unlock(0, win), XMPI_ERR_RMA_SYNC);

        ASSERT_EQ(XMPI_Win_lock(XMPI_LOCK_SHARED, 0, 0, win), XMPI_SUCCESS);
        // Double lock of the same target by the same origin.
        EXPECT_EQ(XMPI_Win_lock(XMPI_LOCK_SHARED, 0, 0, win), XMPI_ERR_RMA_SYNC);
        // Fence while holding a lock mixes the synchronization modes. (Both
        // ranks hold a lock here, so neither enters the fence barrier.)
        EXPECT_EQ(XMPI_Win_fence(0, win), XMPI_ERR_RMA_SYNC);
        // Freeing while an epoch is open is a synchronization error and must
        // leave the handle intact.
        XMPI_Win leaked = win;
        EXPECT_EQ(XMPI_Win_free(&leaked), XMPI_ERR_RMA_SYNC);
        EXPECT_EQ(leaked, win);
        ASSERT_EQ(XMPI_Win_unlock(0, win), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

TEST(Rma, WinCreateValidatesArguments) {
    World::run(2, [] {
        std::vector<int> storage(2, 0);
        XMPI_Win win = XMPI_WIN_NULL;
        // All ranks pass the same invalid arguments, so all fail locally
        // before the collective part — no desync.
        EXPECT_EQ(
            XMPI_Win_create(storage.data(), sizeof(int) * 2, 0, XMPI_COMM_WORLD, &win),
            XMPI_ERR_DISP);
        EXPECT_EQ(
            XMPI_Win_create(storage.data(), -4, sizeof(int), XMPI_COMM_WORLD, &win),
            XMPI_ERR_ARG);
        EXPECT_EQ(
            XMPI_Win_create(nullptr, sizeof(int), sizeof(int), XMPI_COMM_WORLD, &win),
            XMPI_ERR_BUFFER);
        EXPECT_EQ(
            XMPI_Win_create(storage.data(), sizeof(int), sizeof(int), XMPI_COMM_NULL, &win),
            XMPI_ERR_COMM);
        EXPECT_EQ(win, XMPI_WIN_NULL);

        // A zero-sized exposure is legal (a rank may expose nothing).
        ASSERT_EQ(
            XMPI_Win_create(nullptr, 0, sizeof(int), XMPI_COMM_WORLD, &win),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
        EXPECT_EQ(XMPI_Win_free(&win), XMPI_ERR_WIN) << "double free of a null handle";
    });
}

TEST(Rma, ErrorStringsCoverTheRmaCodesAndStayDense) {
    char const* const unknown = xmpi::error_string(-1);
    for (int code = XMPI_SUCCESS; code <= XMPI_ERR_LASTCODE; ++code) {
        EXPECT_STRNE(xmpi::error_string(code), unknown) << "code " << code;
    }
    EXPECT_STREQ(xmpi::error_string(XMPI_ERR_LASTCODE + 1), unknown);
    // The new codes have distinct, descriptive messages.
    EXPECT_NE(
        std::string(xmpi::error_string(XMPI_ERR_WIN)),
        std::string(xmpi::error_string(XMPI_ERR_RMA_SYNC)));
    EXPECT_NE(
        std::string(xmpi::error_string(XMPI_ERR_RMA_RANGE)),
        std::string(xmpi::error_string(XMPI_ERR_DISP)));
}

// Puts and gets between a contiguous and a strided layout, in every
// direction: the drain must scatter/gather exactly the typemap's bytes and
// leave every gap (and everything outside the op) untouched.
TEST(Rma, DerivedTypePutAndGetKeepTheGaps) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        int const peer = 1 - rank;
        XMPI_Datatype strided = nullptr;
        ASSERT_EQ(XMPI_Type_vector(3, 1, 2, XMPI_INT, &strided), XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Type_commit(&strided), XMPI_SUCCESS);

        struct Layout {
            XMPI_Datatype type;
            int count;
            std::array<int, 3> slots; ///< int slots the three elements occupy
        };
        Layout const dense{XMPI_INT, 3, {0, 1, 2}};
        Layout const spread{strided, 1, {0, 2, 4}};
        constexpr int kSlots = 8;
        constexpr int kDisp = 1;
        std::vector<int> window_mem(kSlots);
        XMPI_Win win = make_int_win(window_mem);

        for (bool const put: {true, false}) {
            for (auto const& [origin_layout, target_layout]:
                 {std::pair{dense, spread}, std::pair{spread, dense}, std::pair{spread, spread}}) {
                SCOPED_TRACE(
                    std::string(put ? "put" : "get") + " origin "
                    + (origin_layout.count == 1 ? "strided" : "contiguous") + " target "
                    + (target_layout.count == 1 ? "strided" : "contiguous"));
                // Own window memory is rewritten only between epochs.
                auto const window_value = [](int owner, int slot) { return owner * 1000 + slot; };
                auto const origin_value = [](int owner, int slot) {
                    return owner * 1000 + 100 + slot;
                };
                std::vector<int> origin(kSlots);
                for (int slot = 0; slot < kSlots; ++slot) {
                    window_mem[static_cast<std::size_t>(slot)] = window_value(rank, slot);
                    origin[static_cast<std::size_t>(slot)] = origin_value(rank, slot);
                }
                std::vector<int> expected_window = window_mem;
                std::vector<int> expected_origin = origin;

                ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
                if (put) {
                    ASSERT_EQ(
                        XMPI_Put(
                            origin.data(), origin_layout.count, origin_layout.type, peer, kDisp,
                            target_layout.count, target_layout.type, win),
                        XMPI_SUCCESS);
                } else {
                    ASSERT_EQ(
                        XMPI_Get(
                            origin.data(), origin_layout.count, origin_layout.type, peer, kDisp,
                            target_layout.count, target_layout.type, win),
                        XMPI_SUCCESS);
                }
                ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);

                for (std::size_t k = 0; k < 3; ++k) {
                    int const origin_slot = origin_layout.slots[k];
                    int const target_slot = kDisp + target_layout.slots[k];
                    if (put) {
                        // The peer's put landed in this rank's window.
                        expected_window[static_cast<std::size_t>(target_slot)] =
                            origin_value(peer, origin_slot);
                    } else {
                        expected_origin[static_cast<std::size_t>(origin_slot)] =
                            window_value(peer, target_slot);
                    }
                }
                EXPECT_EQ(window_mem, expected_window);
                EXPECT_EQ(origin, expected_origin);
            }
        }
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
        XMPI_Type_free(&strided);
    });
}

// ---------------------------------------------------------------------------
// Profile counters
// ---------------------------------------------------------------------------

TEST(Rma, CountersTrackOpsAndZeroCopy) {
    World::run(2, [] {
        int rank = -1;
        XMPI_Comm_rank(XMPI_COMM_WORLD, &rank);
        std::vector<int> window_mem(8, 0);
        XMPI_Win win = make_int_win(window_mem);
        xmpi::profile::reset_mine();

        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        std::vector<int> origin(4, rank);
        int const peer = 1 - rank;
        ASSERT_EQ(
            XMPI_Put(origin.data(), 4, XMPI_INT, peer, 0, 4, XMPI_INT, win),
            XMPI_SUCCESS);
        ASSERT_EQ(
            XMPI_Put(origin.data(), 4, XMPI_INT, peer, 4, 4, XMPI_INT, win),
            XMPI_SUCCESS);
        int scratch[4] = {};
        ASSERT_EQ(
            XMPI_Get(scratch, 4, XMPI_INT, peer, 0, 4, XMPI_INT, win),
            XMPI_SUCCESS);
        int const one = 1;
        ASSERT_EQ(
            XMPI_Accumulate(&one, 1, XMPI_INT, peer, 0, 1, XMPI_INT, XMPI_SUM, win),
            XMPI_SUCCESS);
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);

        auto const snapshot = xmpi::profile::my_snapshot();
        EXPECT_EQ(snapshot.rma_puts, 2u);
        EXPECT_EQ(snapshot.rma_gets, 1u);
        EXPECT_EQ(snapshot.rma_accumulates, 1u);
        // Contiguous-origin puts drain without staging; both fences count
        // as epoch waits.
        EXPECT_GE(snapshot.rma_bytes_zero_copied, 2 * 4 * sizeof(int));
        EXPECT_EQ(snapshot.rma_epoch_waits, 2u);
        ASSERT_EQ(XMPI_Win_free(&win), XMPI_SUCCESS);
    });
}

// ---------------------------------------------------------------------------
// Chaos: failures inside RMA epochs
// ---------------------------------------------------------------------------

// A rank dies at the fence hook: the survivors' fence must return
// XMPI_ERR_PROC_FAILED instead of hanging in the epoch barrier, and
// subsequent ops targeting the dead rank must fail cleanly. The window
// memory lives *outside* rank_main so the dead rank's exposed region never
// dangles.
TEST(RmaChaos, FenceReportsPeerDeathInsteadOfHanging) {
    constexpr int p = 3;
    constexpr int victim = 1;
    (void)chaos::take_fired_log();
    chaos::arm_next_world(
        chaos::FaultPlan(11).kill_at_hook(victim, chaos::Hook::ft_win_fence, 2));
    std::vector<std::vector<int>> memories(p, std::vector<int>(2, 0));
    World::run_ranked(p, [&](int rank) {
        XMPI_Win win = make_int_win(memories[static_cast<std::size_t>(rank)]);
        // First fence: everyone passes (the victim dies at its second).
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        int const err = XMPI_Win_fence(0, win);
        EXPECT_EQ(err, XMPI_ERR_PROC_FAILED) << "rank " << rank;
        // Ops towards the dead rank now fail fast; towards survivors the
        // epoch is closed (the failed fence does not reopen it).
        int value = 1;
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, victim, 0, 1, XMPI_INT, win),
            XMPI_ERR_RMA_SYNC);
        // Locking the failed rank reports the failure.
        EXPECT_EQ(
            XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, victim, 0, win),
            XMPI_ERR_PROC_FAILED);
        // Free still completes (with the failure reported, not a hang).
        EXPECT_EQ(XMPI_Win_free(&win), XMPI_ERR_PROC_FAILED);
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, victim);
}

// A rank dies *while holding* an exclusive lock (the ft_win_lock hook fires
// after acquisition): waiting ranks must prune the dead holder and acquire,
// not deadlock.
TEST(RmaChaos, DeadLockHolderIsPruned) {
    constexpr int p = 3;
    constexpr int victim = 2;
    (void)chaos::take_fired_log();
    chaos::arm_next_world(
        chaos::FaultPlan(23).kill_at_hook(victim, chaos::Hook::ft_win_lock, 1));
    std::vector<std::vector<int>> memories(p, std::vector<int>(1, 0));
    World::run_ranked(p, [&](int rank) {
        XMPI_Win win = make_int_win(memories[static_cast<std::size_t>(rank)]);
        if (rank == victim) {
            // Dies inside this call, after acquiring the lock.
            (void)XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 0, 0, win);
            FAIL() << "the victim must not survive its lock acquisition";
        }
        // Give the victim a head start so the survivors usually contend
        // against a dead holder (the test is correct either way).
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        int const err = XMPI_Win_lock(XMPI_LOCK_EXCLUSIVE, 0, 0, win);
        ASSERT_EQ(err, XMPI_SUCCESS) << "rank " << rank;
        ASSERT_EQ(XMPI_Win_unlock(0, win), XMPI_SUCCESS);
        EXPECT_EQ(XMPI_Win_free(&win), XMPI_ERR_PROC_FAILED);
    });
    auto const fired = chaos::take_fired_log();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].victim, victim);
}

// Revocation closes the window for business: after XMPI_Comm_revoke, RMA
// ops and locks report XMPI_ERR_REVOKED.
TEST(RmaChaos, RevokedCommunicatorStopsRmaOps) {
    World::run(2, [] {
        std::vector<int> window_mem(1, 0);
        XMPI_Win win = make_int_win(window_mem);
        ASSERT_EQ(XMPI_Win_fence(0, win), XMPI_SUCCESS);
        XMPI_Barrier(XMPI_COMM_WORLD);
        XMPI_Comm_revoke(XMPI_COMM_WORLD);
        int value = 1;
        EXPECT_EQ(
            XMPI_Put(&value, 1, XMPI_INT, 0, 0, 1, XMPI_INT, win),
            XMPI_ERR_REVOKED);
        EXPECT_EQ(
            XMPI_Win_lock(XMPI_LOCK_SHARED, 0, 0, win), XMPI_ERR_REVOKED);
        EXPECT_EQ(XMPI_Win_free(&win), XMPI_ERR_REVOKED);
    });
}

} // namespace
