#include "bittorrent/piece_picker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace strat::bt {
namespace {

TEST(Bitfield, StartsEmpty) {
  const Bitfield b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.complete());
  EXPECT_FALSE(b.test(0));
  EXPECT_FALSE(b.test(99));
}

TEST(Bitfield, SetResetCount) {
  Bitfield b(70);
  b.set(0);
  b.set(63);
  b.set(64);  // crosses the word boundary
  b.set(69);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.set(64);  // idempotent
  EXPECT_EQ(b.count(), 4u);
  b.reset(64);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_FALSE(b.test(64));
  b.reset(64);  // idempotent
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitfield, CompleteDetection) {
  Bitfield b(3);
  b.set(0);
  b.set(1);
  EXPECT_FALSE(b.complete());
  b.set(2);
  EXPECT_TRUE(b.complete());
}

TEST(Bitfield, BoundsChecking) {
  Bitfield b(8);
  EXPECT_THROW((void)b.test(8), std::out_of_range);
  EXPECT_THROW(b.set(8), std::out_of_range);
  EXPECT_THROW(b.reset(100), std::out_of_range);
}

TEST(Bitfield, InterestedInSemantics) {
  Bitfield local(10);
  Bitfield remote(10);
  EXPECT_FALSE(local.interested_in(remote));  // remote has nothing
  remote.set(4);
  EXPECT_TRUE(local.interested_in(remote));
  local.set(4);
  EXPECT_FALSE(local.interested_in(remote));  // already have it
  remote.set(9);
  EXPECT_TRUE(local.interested_in(remote));
}

TEST(Bitfield, InterestedInSizeMismatchThrows) {
  const Bitfield a(4);
  const Bitfield b(5);
  EXPECT_THROW((void)a.interested_in(b), std::invalid_argument);
}

TEST(Bitfield, BernoulliMatchesPerPieceLoopAndRngState) {
  // The word-at-a-time fill must reproduce the per-piece
  // rng.bernoulli(p) + set() loop bit for bit and leave the generator
  // in the same state: ragged and empty tails, and the p extremes
  // (0, the smallest subnormal, the largest double below 1, 1) where
  // the scaled threshold comparison could first go wrong.
  for (const std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{1029}}) {
    for (const double p : {0.0, 4.9e-324, 0.25, 0.5, std::nextafter(1.0, 0.0), 1.0}) {
      graph::Rng fast(7 + bits);
      graph::Rng slow(7 + bits);
      const Bitfield got = Bitfield::bernoulli(bits, p, fast);
      Bitfield want(bits);
      for (PieceId t = 0; t < bits; ++t) {
        if (slow.bernoulli(p)) want.set(t);
      }
      ASSERT_EQ(got.size(), bits);
      EXPECT_EQ(got.count(), want.count()) << "bits " << bits << " p " << p;
      EXPECT_TRUE(std::equal(got.words().begin(), got.words().end(), want.words().begin(),
                             want.words().end()))
          << "bits " << bits << " p " << p;
      const graph::Rng::State a = fast.state();
      const graph::Rng::State b = slow.state();
      for (int w = 0; w < 4; ++w) EXPECT_EQ(a.s[w], b.s[w]) << "bits " << bits << " p " << p;
      EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
    }
  }
}

TEST(PiecePicker, AddBitfieldsMatchesPerBitfieldLoop) {
  // The byte-lane counters saturate after 255 rows, so the row counts
  // straddle the flush boundary; the sizes cover empty, ragged and
  // whole-word tails. Both pickers start from the same nonzero counts.
  for (const std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{1029}}) {
    for (const std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{254},
                                   std::size_t{255}, std::size_t{256}, std::size_t{511},
                                   std::size_t{600}}) {
      for (const double density : {0.0, 0.5, 1.0}) {
        graph::Rng rng(bits * 1000 + rows);
        const Bitfield base = Bitfield::bernoulli(bits, 0.5, rng);
        std::vector<Bitfield> haves;
        for (std::size_t r = 0; r < rows; ++r) {
          haves.push_back(Bitfield::bernoulli(bits, density, rng));
        }
        PiecePicker fast(bits);
        PiecePicker slow(bits);
        fast.add_bitfield(base);
        slow.add_bitfield(base);
        fast.add_bitfields(haves);
        for (const Bitfield& have : haves) slow.add_bitfield(have);
        for (PieceId t = 0; t < bits; ++t) {
          ASSERT_EQ(fast.availability(t), slow.availability(t))
              << "bits " << bits << " rows " << rows << " density " << density << " piece " << t;
        }
      }
    }
  }
  // A size mismatch throws before anything is counted, even behind a
  // flush's worth of good rows.
  graph::Rng rng(5);
  PiecePicker picker(65);
  picker.add_bitfield(Bitfield::bernoulli(65, 0.5, rng));
  std::vector<std::uint32_t> before;
  for (PieceId t = 0; t < 65; ++t) before.push_back(picker.availability(t));
  std::vector<Bitfield> haves(300, Bitfield::bernoulli(65, 1.0, rng));
  haves.emplace_back(64);  // the mismatch comes last, after a flush's worth of rows
  EXPECT_THROW(picker.add_bitfields(haves), std::invalid_argument);
  for (PieceId t = 0; t < 65; ++t) EXPECT_EQ(picker.availability(t), before[t]) << "piece " << t;
}

TEST(PiecePicker, AvailabilityBookkeeping) {
  PiecePicker picker(5);
  EXPECT_EQ(picker.availability(3), 0u);
  picker.add_availability(3);
  picker.add_availability(3);
  EXPECT_EQ(picker.availability(3), 2u);
  EXPECT_THROW((void)picker.add_availability(5), std::out_of_range);
}

TEST(PiecePicker, PicksRarestUsefulPiece) {
  graph::Rng rng(1);
  PiecePicker picker(4);
  // Piece availabilities: 0 -> 3 copies, 1 -> 1 copy, 2 -> 2, 3 -> 5.
  for (int i = 0; i < 3; ++i) picker.add_availability(0);
  picker.add_availability(1);
  for (int i = 0; i < 2; ++i) picker.add_availability(2);
  for (int i = 0; i < 5; ++i) picker.add_availability(3);
  Bitfield local(4);
  Bitfield remote(4);
  remote.set(0);
  remote.set(1);
  remote.set(3);
  const auto pick = picker.pick_rarest(local, remote, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);  // rarest among {0, 1, 3}
}

TEST(PiecePicker, SkipsPiecesAlreadyHeld) {
  graph::Rng rng(2);
  PiecePicker picker(3);
  picker.add_availability(0);
  for (int i = 0; i < 4; ++i) picker.add_availability(1);
  Bitfield local(3);
  local.set(0);  // the rarest piece is already held
  Bitfield remote(3);
  remote.set(0);
  remote.set(1);
  const auto pick = picker.pick_rarest(local, remote, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(PiecePicker, NothingUsefulReturnsNullopt) {
  graph::Rng rng(3);
  PiecePicker picker(3);
  Bitfield local(3);
  local.set(0);
  local.set(1);
  local.set(2);
  Bitfield remote(3);
  remote.set(1);
  EXPECT_FALSE(picker.pick_rarest(local, remote, rng).has_value());
  const Bitfield empty_remote(3);
  const Bitfield empty_local(3);
  EXPECT_FALSE(picker.pick_rarest(empty_local, empty_remote, rng).has_value());
}

TEST(PiecePicker, TieBreakingIsUniformish) {
  PiecePicker picker(3);  // all availabilities zero: 3-way tie
  Bitfield local(3);
  Bitfield remote(3);
  remote.set(0);
  remote.set(1);
  remote.set(2);
  graph::Rng rng(4);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    const auto pick = picker.pick_rarest(local, remote, rng);
    ASSERT_TRUE(pick.has_value());
    ++counts[*pick];
  }
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / 3000.0, 1.0 / 3.0, 0.05);
}

TEST(PiecePicker, RemoveAvailabilityUndoesAddAndGuardsZero) {
  PiecePicker picker(4);
  picker.add_availability(2);
  picker.add_availability(2);
  picker.remove_availability(2);
  EXPECT_EQ(picker.availability(2), 1u);
  picker.remove_availability(2);
  EXPECT_EQ(picker.availability(2), 0u);
  EXPECT_THROW(picker.remove_availability(2), std::logic_error);
  EXPECT_THROW(picker.remove_availability(9), std::out_of_range);
  // A removed holder changes rarest-first decisions: piece 3 becomes
  // strictly rarer than piece 1 once its extra copy is gone.
  picker.add_availability(1);
  picker.add_availability(3);
  picker.add_availability(3);
  picker.remove_availability(3);
  picker.remove_availability(3);
  Bitfield local(4);
  Bitfield remote(4);
  remote.set(1);
  remote.set(3);
  graph::Rng rng(5);
  const auto pick = picker.pick_rarest(local, remote, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3u);
}

// Independent scalar reimplementation of the pick contract: minimum
// availability among candidates, ties counted in piece order, one
// rng.below(ties) draw (none for a single tie), k-th tie in piece
// order. Pins each kernel to the exact contract — same pick AND same
// RNG consumption.
std::optional<PieceId> reference_pick(const std::vector<std::uint32_t>& avail,
                                      const std::vector<std::uint64_t>& candidates,
                                      graph::Rng& rng) {
  const auto is_candidate = [&](std::size_t t) { return (candidates[t / 64] >> (t % 64)) & 1u; };
  std::uint32_t best = 0;
  std::uint64_t ties = 0;
  for (std::size_t t = 0; t < avail.size(); ++t) {
    if (!is_candidate(t)) continue;
    if (ties == 0 || avail[t] < best) {
      best = avail[t];
      ties = 1;
    } else if (avail[t] == best) {
      ++ties;
    }
  }
  if (ties == 0) return std::nullopt;
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (std::size_t t = 0; t < avail.size(); ++t) {
    if (!is_candidate(t) || avail[t] != best) continue;
    if (k == 0) return static_cast<PieceId>(t);
    --k;
  }
  return std::nullopt;
}

std::vector<std::uint64_t> words_of(const Bitfield& b) {
  return {b.words().begin(), b.words().end()};
}

using Kernel = std::optional<PieceId> (*)(std::span<const std::uint32_t>,
                                          std::span<const std::uint64_t>, graph::Rng&);

// The scalar kernel on every host, the AVX-512 kernel where the CPU
// has it: pick_rarest takes only one of them on a given host.
std::vector<std::pair<const char*, Kernel>> kernels() {
  std::vector<std::pair<const char*, Kernel>> out{{"scalar", &detail::pick_rarest_scalar}};
#ifdef STRAT_PICK_AVX512
  if (__builtin_cpu_supports("avx512f")) out.emplace_back("avx512", &detail::pick_rarest_avx512);
#endif
  return out;
}

TEST(PiecePicker, PickMatchesScalarContractAtEveryDensity) {
  // 1029 pieces: a ragged tail word, so the kernel's masked loads and
  // the tail-lane handling are exercised too. pick_rarest runs the
  // host's kernel; the loop below runs each kernel directly.
  const std::size_t n = 1029;
  PiecePicker picker(n);
  graph::Rng setup(2024);
  std::vector<std::uint32_t> avail(n);
  for (PieceId t = 0; t < n; ++t) {
    // Clustered availability (many ties) to stress tie counting.
    const auto copies = 1 + static_cast<std::uint32_t>(setup.below(7));
    for (std::uint32_t c = 0; c < copies; ++c) picker.add_availability(t);
    avail[t] = copies;
  }
  for (const double density : {0.01, 0.1, 0.4, 0.8, 0.99}) {
    Bitfield local(n);
    Bitfield remote(n);
    Bitfield excluded(n);
    Bitfield cand(n);
    Bitfield cand_ex(n);
    for (PieceId t = 0; t < n; ++t) {
      if (setup.bernoulli(0.4)) local.set(t);
      if (setup.bernoulli(density)) remote.set(t);
      if (setup.bernoulli(0.1)) excluded.set(t);
      if (remote.test(t) && !local.test(t)) cand.set(t);
      if (cand.test(t) && !excluded.test(t)) cand_ex.set(t);
    }
    const std::vector<std::uint64_t> cw = words_of(cand);
    const std::vector<std::uint64_t> cxw = words_of(cand_ex);
    graph::Rng a(99);
    graph::Rng b(99);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(picker.pick_rarest(local, remote, a), reference_pick(avail, cw, b))
          << "density " << density << " iter " << i;
      ASSERT_EQ(picker.pick_rarest(local, remote, excluded, a), reference_pick(avail, cxw, b))
          << "density " << density << " iter " << i;
      for (const auto& [name, kernel] : kernels()) {
        ASSERT_EQ(kernel(avail, cw, a), reference_pick(avail, cw, b))
            << name << " density " << density << " iter " << i;
        ASSERT_EQ(kernel(avail, cxw, a), reference_pick(avail, cxw, b))
            << name << " density " << density << " iter " << i;
      }
      // Same draw count: the streams must stay in lockstep.
      ASSERT_EQ(a(), b()) << "RNG divergence at density " << density << " iter " << i;
    }
  }
}

TEST(PiecePicker, KernelsMatchScalarContractAtEdgeCases) {
  for (const auto& [name, kernel] : kernels()) {
    // No candidate: nullopt, no draw. Exactly one candidate: no draw,
    // even though other pieces are rarer.
    for (const std::size_t n : {1u, 64u, 1029u}) {
      const std::vector<std::uint32_t> avail(n, 3);
      std::vector<std::uint64_t> cand((n + 63) / 64, 0);
      graph::Rng a(7);
      graph::Rng b(7);
      EXPECT_EQ(kernel(avail, cand, a), std::nullopt) << name << " n " << n;
      EXPECT_EQ(a(), b()) << name << " drew with no candidate, n " << n;
      cand.back() = std::uint64_t{1} << ((n - 1) % 64);
      EXPECT_EQ(kernel(avail, cand, a), std::optional<PieceId>(static_cast<PieceId>(n - 1)))
          << name << " n " << n;
      EXPECT_EQ(a(), b()) << name << " drew for a single candidate, n " << n;
    }
    // Availabilities at and above 2^31, up to UINT32_MAX (the sweep's
    // starting minimum): a signed compare would rank 2^31 below 1.
    for (const std::size_t n : {1u, 64u, 1029u}) {
      graph::Rng setup(n);
      const std::uint32_t levels[] = {1u, 2u, 0x7FFFFFFFu, 0x80000000u, 0x80000001u, 0xFFFFFFFEu,
                                      0xFFFFFFFFu};
      for (std::size_t lo = 0; lo < std::size(levels); ++lo) {
        std::vector<std::uint32_t> avail(n);
        for (std::uint32_t& v : avail) {
          v = levels[lo + setup.below(std::size(levels) - lo)];
        }
        std::vector<std::uint64_t> cand((n + 63) / 64, 0);
        for (std::size_t t = 0; t < n; ++t) {
          if (setup.bernoulli(0.5)) cand[t / 64] |= std::uint64_t{1} << (t % 64);
        }
        graph::Rng a(11);
        graph::Rng b(11);
        for (int i = 0; i < 20; ++i) {
          ASSERT_EQ(kernel(avail, cand, a), reference_pick(avail, cand, b))
              << name << " n " << n << " floor " << levels[lo];
        }
        ASSERT_EQ(a(), b()) << name << " n " << n << " floor " << levels[lo];
      }
    }
    // Ties split between the first word and the ragged last word
    // (pieces 1024..1028): the walk must count through the full words
    // and land inside the tail.
    const std::size_t n = 1029;
    std::vector<std::uint32_t> avail(n, 9);
    std::vector<std::uint64_t> cand((n + 63) / 64, ~std::uint64_t{0});
    cand.back() = 0x1F;
    for (const std::size_t t : {5u, 1024u, 1026u, 1028u}) avail[t] = 2;
    graph::Rng a(13);
    graph::Rng b(13);
    std::set<PieceId> seen;
    for (int i = 0; i < 200; ++i) {
      const auto pick = kernel(avail, cand, a);
      ASSERT_EQ(pick, reference_pick(avail, cand, b)) << name << " iter " << i;
      seen.insert(*pick);
    }
    EXPECT_EQ(seen, (std::set<PieceId>{5, 1024, 1026, 1028})) << name;
    EXPECT_EQ(a(), b()) << name;
  }
}

}  // namespace
}  // namespace strat::bt
