// parallel_for_chunks contract: every index exactly once, any thread
// count, dense chunk ids, small ranges inline, exceptions surfaced on
// the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/parallel.hpp"

namespace strat::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    const std::size_t count = 257;
    std::vector<std::atomic<int>> hits(count);
    parallel_for_chunks(count, threads, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, HandlesDegenerateSizes) {
  std::atomic<int> calls{0};
  const auto count_calls = [&](std::size_t begin, std::size_t end, std::size_t) {
    calls.fetch_add(static_cast<int>(end - begin));
  };
  parallel_for_chunks(0, 4, 1, count_calls);
  EXPECT_EQ(calls.load(), 0);
  parallel_for_chunks(1, 8, 1, count_calls);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_chunks(5, 1, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  const auto boom = [](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i == 3) throw std::runtime_error("boom");
    }
  };
  EXPECT_THROW(parallel_for_chunks(8, 4, 1, boom), std::runtime_error);
  EXPECT_THROW(parallel_for_chunks(8, 1, 1, boom), std::runtime_error);
}

TEST(ParallelFor, RecommendedThreadsIsPositive) {
  EXPECT_GE(recommended_threads(), 1u);
}

TEST(ParallelForChunks, PartitionCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for_chunks(count, threads, 8,
                          [&](std::size_t begin, std::size_t end, std::size_t) {
                            for (std::size_t i = begin; i < end; ++i) ++hits[i];
                          });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " count " << count << " threads " << threads;
      }
    }
  }
}

TEST(ParallelForChunks, ChunkIdsAreDenseAndClaimedOnce) {
  const std::size_t count = 100;
  const std::size_t threads = 4;
  const std::size_t chunks = chunk_count(count, threads, 8);
  ASSERT_GE(chunks, 2u);
  std::vector<std::atomic<int>> claims(chunks);
  parallel_for_chunks(count, threads, 8,
                      [&](std::size_t, std::size_t, std::size_t chunk) {
                        ASSERT_LT(chunk, chunks);
                        ++claims[chunk];
                      });
  for (std::size_t c = 0; c < chunks; ++c) EXPECT_EQ(claims[c].load(), 1) << "chunk " << c;
}

TEST(ParallelForChunks, GrainKeepsSmallRangesInline) {
  // Below one grain the whole range must run as a single inline chunk
  // (no thread spawn) — the per-round overhead guard for tiny swarms.
  EXPECT_EQ(chunk_count(63, 8, 64), 1u);
  EXPECT_EQ(chunk_count(0, 8, 64), 0u);
  EXPECT_EQ(chunk_count(1000, 1, 64), 1u);
  // One chunk per grain's worth of work, capped by the thread count.
  EXPECT_EQ(chunk_count(128, 8, 64), 2u);
  EXPECT_EQ(chunk_count(100000, 8, 64), 8u);
  std::vector<std::size_t> order;
  parallel_for_chunks(10, 8, 64, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    EXPECT_EQ(chunk, 0u);
    for (std::size_t i = begin; i < end; ++i) order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace strat::sim
