// Regression tests for the swarm state bugs fixed alongside the CSR
// data-plane rewrite: departed leechers leaking piece availability,
// construction-complete leechers never departing, and upload budget
// stranded mid-round being discarded instead of redistributed — plus
// capacity validation on both data planes.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/swarm.hpp"

namespace strat::bt {
namespace {

std::vector<double> bandwidths(std::size_t n, double base = 400.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = base * (1.0 + 0.001 * static_cast<double>(i));
  return out;
}

/// Total piece copies counted by the picker (availability sum).
double total_copies(const Swarm& swarm, std::size_t num_pieces) {
  return swarm.availability_stats().mean * static_cast<double>(num_pieces);
}

/// Piece copies actually held by non-departed peers.
std::size_t held_copies(const Swarm& swarm) {
  std::size_t held = 0;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    if (!swarm.departed(p)) held += swarm.stats(p).pieces;
  }
  return held;
}

TEST(SwarmBugfixes, DepartureDecrementsAvailability) {
  // Pre-fix, a departed leecher's copies stayed in the PiecePicker
  // forever, skewing rarest-first and inflating availability_stats().
  graph::Rng rng(21);
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 2;
  cfg.num_pieces = 16;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.7;
  cfg.stay_as_seed = false;
  Swarm swarm(cfg, bandwidths(30, 800.0), rng);
  for (int step = 0; step < 20; ++step) {
    swarm.run(10);
    EXPECT_NEAR(total_copies(swarm, cfg.num_pieces),
                static_cast<double>(held_copies(swarm)), 1e-6)
        << "after " << swarm.rounds_elapsed() << " rounds";
  }
  // The scenario must actually exercise departures.
  std::size_t departures = 0;
  for (core::PeerId p = 0; p < 30; ++p) departures += swarm.departed(p) ? 1u : 0u;
  EXPECT_GT(departures, 10u);
}

TEST(SwarmBugfixes, ConstructionCompleteLeecherIsConsistent) {
  // With few pieces and a high starting fraction, some leechers draw a
  // complete bitfield at construction. Pre-fix they kept
  // completion_round = -1, never departed, and leech_download_kbps()
  // divided their zero download by the whole run length.
  graph::Rng rng(22);
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 1;
  cfg.num_pieces = 4;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.9;
  cfg.stay_as_seed = false;
  Swarm swarm(cfg, bandwidths(30), rng);
  std::size_t born_complete = 0;
  for (core::PeerId p = 0; p < 30; ++p) {
    if (swarm.stats(p).pieces == 4u) {
      ++born_complete;
      EXPECT_DOUBLE_EQ(swarm.stats(p).completion_round, 0.0) << "peer " << p;
      EXPECT_TRUE(swarm.departed(p)) << "peer " << p;
    }
  }
  ASSERT_GT(born_complete, 0u) << "scenario must produce construction-complete leechers";
  // Their copies are not counted as available.
  EXPECT_NEAR(total_copies(swarm, cfg.num_pieces), static_cast<double>(held_copies(swarm)),
              1e-6);
  swarm.run(50);
  for (core::PeerId p = 0; p < 30; ++p) {
    if (swarm.stats(p).completion_round == 0.0 && !swarm.stats(p).seed) {
      // Rate over a zero-round leeching phase is zero, not
      // download / full-run-length.
      EXPECT_DOUBLE_EQ(swarm.leech_download_kbps(p), 0.0) << "peer " << p;
      EXPECT_DOUBLE_EQ(swarm.stats(p).downloaded_kb, 0.0) << "peer " << p;
    }
  }
}

TEST(SwarmBugfixes, StrandedBudgetRedistributedWithinRound) {
  // One seed (24 kbps -> 30 KB per round), a relaying leecher A (fast)
  // and a near-capacity-less leecher B (capacities must be positive) on
  // a complete 3-vertex overlay. B
  // receives from both the seed and A, so it finishes first; in B's
  // completion round its leftover share must flow to A. Pre-fix the
  // seed silently discarded it, shipping less than its budget while A
  // was still starving.
  graph::Rng rng(23);
  SwarmConfig cfg;
  cfg.num_peers = 2;
  cfg.seeds = 1;
  cfg.num_pieces = 16;
  cfg.piece_kb = 10.0;
  cfg.neighbor_degree = 2.0;  // p = d/(n-1) = 1: deterministic complete overlay
  cfg.post_flashcrowd = false;
  cfg.seed_upload_kbps = 24.0;
  Swarm swarm(cfg, {80.0, 1e-6}, rng);
  const double budget_kb = cfg.seed_upload_kbps / 8.0 * cfg.round_seconds;
  const core::PeerId seed_id = 2;
  double prev_uploaded = 0.0;
  bool saw_partial_completion_round = false;
  for (std::size_t r = 0; r < 60; ++r) {
    const std::size_t done_before = swarm.completed_leechers();
    swarm.run_round();
    const double delta = swarm.stats(seed_id).uploaded_kb - prev_uploaded;
    prev_uploaded = swarm.stats(seed_id).uploaded_kb;
    if (swarm.completed_leechers() < 2) {
      // Someone is still hungry and unchoked (complete overlay): the
      // seed must ship its entire budget, stranded shares included.
      EXPECT_NEAR(delta, budget_kb, 1e-6) << "round " << r;
      if (swarm.completed_leechers() > done_before) saw_partial_completion_round = true;
    }
  }
  EXPECT_EQ(swarm.completed_leechers(), 2u);
  // The scenario must hit the interesting case: a leecher completing
  // while the other still downloads.
  EXPECT_TRUE(saw_partial_completion_round);
  // B (fed by seed + relay) finishes before A (fed by seed only).
  EXPECT_LT(swarm.stats(1).completion_round, swarm.stats(0).completion_round);
}

TEST(SwarmBugfixes, NonPositiveCapacitiesAreRejected) {
  // Zero, negative and NaN capacities used to be accepted; a NaN then
  // reached the seed-median and capacity-rank sorts, breaking their
  // strict weak ordering.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  SwarmConfig cfg;
  cfg.num_peers = 6;
  cfg.num_pieces = 16;
  cfg.neighbor_degree = 3.0;
  for (const double bad : {0.0, -1.0, kNaN}) {
    std::vector<double> caps = bandwidths(cfg.num_peers);
    caps[2] = bad;
    graph::Rng rng(5);
    EXPECT_THROW(Swarm(cfg, caps, rng), std::invalid_argument) << bad;
    graph::Rng ref_rng(5);
    EXPECT_THROW(ReferenceSwarm(cfg, caps, ref_rng), std::invalid_argument) << bad;
  }
  graph::Rng rng(5);
  Swarm swarm(cfg, bandwidths(cfg.num_peers), rng);
  EXPECT_THROW((void)swarm.join(kNaN), std::invalid_argument);
  EXPECT_EQ(swarm.peer_count(), cfg.num_peers + cfg.seeds);
  graph::Rng ref_rng(5);
  ReferenceSwarm reference(cfg, bandwidths(cfg.num_peers), ref_rng);
  EXPECT_THROW((void)reference.join(kNaN), std::invalid_argument);
  EXPECT_EQ(reference.peer_count(), cfg.num_peers + cfg.seeds);
  // A NaN seed capacity slips past the `<= 0 selects the median` test.
  cfg.seed_upload_kbps = kNaN;
  EXPECT_THROW(Swarm(cfg, bandwidths(cfg.num_peers), rng), std::invalid_argument);
  EXPECT_THROW(ReferenceSwarm(cfg, bandwidths(cfg.num_peers), ref_rng), std::invalid_argument);
}

}  // namespace
}  // namespace strat::bt
