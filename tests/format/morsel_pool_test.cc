#include "src/format/morsel_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace skadi {
namespace {

// Every morsel of [0, total) is visited exactly once, and the countdown
// continuation (RunRegion's Event) releases the caller only after every
// helper finished — missed updates here would show as holes in `hits`.
TEST(MorselPoolTest, ParallelForCoversEveryRowExactlyOnce) {
  MorselPool pool(4);
  constexpr int64_t kTotal = 100'000;
  std::vector<std::atomic<int>> hits(kTotal);
  pool.ParallelFor(kTotal, 1024, 8, [&hits](int64_t, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "row " << i;
  }
}

// Also checks that helpers run in parallel with the caller: each chunk holds
// its worker until a second worker has been inside a chunk at the same time.
// The hold is bounded, so a pool that runs chunks one at a time fails the
// peak check instead of hanging.
TEST(MorselPoolTest, ParallelChunksPartitionExactly) {
  MorselPool pool(4);
  constexpr int64_t kTotal = 9'999;
  std::atomic<int64_t> covered{0};
  std::atomic<int> calls{0};
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  pool.ParallelChunks(kTotal, 4, [&](int chunk, int64_t begin, int64_t end) {
    EXPECT_GE(chunk, 0);
    EXPECT_LT(begin, end);
    covered.fetch_add(end - begin);
    calls.fetch_add(1);
    const int now = inside.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    const int64_t give_up = NowNanos() + 5'000'000'000;
    while (peak.load() < 2 && NowNanos() < give_up) {
      std::this_thread::yield();
    }
    inside.fetch_sub(1);
  });
  EXPECT_EQ(covered.load(), kTotal);
  EXPECT_LE(calls.load(), 4);
  EXPECT_GE(peak.load(), 2);
}

TEST(MorselPoolTest, EmptyRangeRunsNothing) {
  MorselPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 64, 4, [&calls](int64_t, int64_t, int64_t) { ++calls; });
  pool.ParallelChunks(0, 4, [&calls](int, int64_t, int64_t) { ++calls; });
  pool.ParallelFor(-5, 64, 4, [&calls](int64_t, int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// One worker means no helpers: every morsel runs on the caller, in order,
// and the last morsel is cut at `total`.
TEST(MorselPoolTest, OneThreadRunsMorselsInlineInOrder) {
  MorselPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> morsels;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  bool all_on_caller = true;
  pool.ParallelFor(250, 100, 1, [&](int64_t morsel, int64_t begin, int64_t end) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    morsels.push_back(morsel);
    ranges.emplace_back(begin, end);
  });
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(morsels, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(ranges, (std::vector<std::pair<int64_t, int64_t>>{
                        {0, 100}, {100, 200}, {200, 250}}));
}

// Under parallel claiming, morsel m still covers exactly
// [m * morsel_rows, min(total, (m + 1) * morsel_rows)).
TEST(MorselPoolTest, ParallelForMorselBoundsMatchIndex) {
  MorselPool pool(4);
  constexpr int64_t kTotal = 10'500;
  constexpr int64_t kRows = 1'000;
  constexpr size_t kMorsels = 11;
  std::vector<std::atomic<int64_t>> begins(kMorsels);
  std::vector<std::atomic<int64_t>> ends(kMorsels);
  std::vector<std::atomic<int>> hits(kMorsels);
  pool.ParallelFor(kTotal, kRows, 4, [&](int64_t morsel, int64_t begin, int64_t end) {
    ASSERT_GE(morsel, 0);
    ASSERT_LT(morsel, static_cast<int64_t>(kMorsels));
    const auto m = static_cast<size_t>(morsel);
    begins[m].store(begin);
    ends[m].store(end);
    hits[m].fetch_add(1);
  });
  for (size_t m = 0; m < kMorsels; ++m) {
    EXPECT_EQ(hits[m].load(), 1) << "morsel " << m;
    EXPECT_EQ(begins[m].load(), static_cast<int64_t>(m) * kRows) << "morsel " << m;
    EXPECT_EQ(ends[m].load(), std::min(kTotal, static_cast<int64_t>(m + 1) * kRows))
        << "morsel " << m;
  }
}

// ParallelChunks makes no more chunks than rows, nor more than the caller
// plus the pool's helpers; chunk ranges are contiguous and in chunk order.
TEST(MorselPoolTest, ChunkCountCappedByRowsAndHelpers) {
  MorselPool one_helper(1);
  std::vector<std::pair<int64_t, int64_t>> ranges(8, {-1, -1});
  std::atomic<int> calls{0};
  one_helper.ParallelChunks(100, 8, [&](int chunk, int64_t begin, int64_t end) {
    ranges[static_cast<size_t>(chunk)] = {begin, end};
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 50}));
  EXPECT_EQ(ranges[1], (std::pair<int64_t, int64_t>{50, 100}));

  MorselPool four_helpers(4);
  std::vector<std::atomic<int>> row_hits(3);
  calls.store(0);
  four_helpers.ParallelChunks(3, 8, [&](int chunk, int64_t begin, int64_t end) {
    EXPECT_EQ(end - begin, 1);
    EXPECT_EQ(begin, chunk);
    row_hits[static_cast<size_t>(begin)].fetch_add(1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
  for (const auto& hit : row_hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

// Repeated small regions through the shared pool: the countdown must reach
// zero every time (a lost decrement would hang the BlockingWait, surfacing
// as a test timeout rather than a wrong value).
TEST(MorselPoolTest, RepeatedRegionsAllComplete) {
  MorselPool& pool = MorselPool::Global();
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(1'000, 64, 8, [&sum](int64_t, int64_t begin, int64_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 1'000);
  }
}

}  // namespace
}  // namespace skadi
