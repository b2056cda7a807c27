// Resume-equivalence differential tier for the checkpoint/restore
// subsystem: Swarm::save() at round k, resume(), and the continued run
// must be bitwise identical to the uninterrupted one — every PeerStats
// field, the stratification report, and every *subsequent* structural
// RNG draw — at any SwarmConfig::threads value, static and churned,
// and still bitwise equal to the map-based ReferenceSwarm oracle that
// never checkpoints at all. Re-saving a resumed swarm must reproduce
// the original byte stream (serialization is a pure function of run
// state). The robustness half feeds the loader hostile streams — bad
// magic, wrong version, every truncation point, single-byte
// corruption — and requires a clean SnapshotError every time (the
// ASan/UBSan CI job runs this binary to certify no UB on any path).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/peer_table.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"

namespace strat::bt {
namespace {

constexpr std::uint64_t kSeed = 90;
constexpr std::size_t kRounds = 40;
constexpr std::size_t kPostDraws = 16;  // structural draws compared after the run

std::vector<double> capacities(std::size_t n) {
  return BandwidthModel::saroiu2002().representative_sample(n);
}

SwarmConfig base_config(std::size_t peers) {
  SwarmConfig cfg;
  cfg.num_peers = peers;
  cfg.seeds = 2;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.5;
  cfg.endgame = true;        // partial/in-flight/reservation state in the stream
  cfg.stay_as_seed = false;  // completion departures: tombstones + retired records
  return cfg;
}

ChurnSpec churny_spec() {
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 2.0;
  spec.arrival_completion = 0.4;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 25.0;
  spec.replacement_rate = 2.0;
  spec.reannounce_interval = 5;
  return spec;
}

/// Everything a run exposes, plus the structural draws that follow it.
struct EndState {
  std::vector<PeerStats> stats;
  StratificationReport strat;
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t live = 0;
  std::size_t completed = 0;
  std::vector<std::uint64_t> post_draws;
};

template <typename SwarmT>
EndState end_state_of(const SwarmT& swarm, graph::Rng& rng) {
  EndState end;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) end.stats.push_back(swarm.stats(p));
  end.strat = swarm.stratification();
  end.arrivals = swarm.arrivals();
  end.departures = swarm.departures();
  end.live = swarm.live_peer_count();
  end.completed = swarm.completed_leechers();
  for (std::size_t i = 0; i < kPostDraws; ++i) end.post_draws.push_back(rng());
  return end;
}

void expect_bitwise_equal(const EndState& a, const EndState& b, const char* what) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
  for (std::size_t p = 0; p < a.stats.size(); ++p) {
    ASSERT_EQ(a.stats[p].upload_kbps, b.stats[p].upload_kbps) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].uploaded_kb, b.stats[p].uploaded_kb) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].downloaded_kb, b.stats[p].downloaded_kb) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].pieces, b.stats[p].pieces) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].completion_round, b.stats[p].completion_round) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].join_round, b.stats[p].join_round) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].leave_round, b.stats[p].leave_round) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].seed, b.stats[p].seed) << what << " peer " << p;
  }
  EXPECT_EQ(a.strat.reciprocated_pairs, b.strat.reciprocated_pairs) << what;
  EXPECT_EQ(a.strat.mean_normalized_offset, b.strat.mean_normalized_offset) << what;
  EXPECT_EQ(a.strat.partner_rank_correlation, b.strat.partner_rank_correlation) << what;
  EXPECT_EQ(a.arrivals, b.arrivals) << what;
  EXPECT_EQ(a.departures, b.departures) << what;
  EXPECT_EQ(a.live, b.live) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.post_draws.size(), b.post_draws.size()) << what;
  for (std::size_t i = 0; i < a.post_draws.size(); ++i) {
    ASSERT_EQ(a.post_draws[i], b.post_draws[i]) << what << " post-run draw " << i;
  }
}

/// One uninterrupted run with a checkpoint taken mid-flight: the swarm
/// (and, when churned, the driver) serialized after `save_round`
/// rounds, then driven to `rounds` without interruption.
struct UninterruptedRun {
  std::string swarm_snapshot;
  std::string churn_snapshot;  // empty when not churned
  EndState end;
};

UninterruptedRun run_with_checkpoint(const SwarmConfig& cfg, std::size_t peers, bool churned,
                                     std::size_t save_round, std::size_t rounds = kRounds,
                                     std::uint64_t seed = kSeed) {
  graph::Rng rng(seed);
  Swarm swarm(cfg, capacities(peers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(peers), rng);
  if (churned) churn.attach(swarm);
  UninterruptedRun run;
  auto checkpoint = [&] {
    run.swarm_snapshot = save_to_string(swarm);
    if (churned) {
      std::ostringstream out(std::ios::binary);
      save_churn_driver(out, churn);
      run.churn_snapshot = std::move(out).str();
    }
  };
  if (save_round == 0) checkpoint();
  for (std::size_t r = 0; r < rounds; ++r) {
    if (churned) churn.before_round(swarm);
    swarm.run_round();
    if (r + 1 == save_round) checkpoint();
  }
  run.end = end_state_of(swarm, rng);
  return run;
}

/// Resumes `run`'s checkpoint and drives it to `rounds` under the same
/// schedule, returning the continued end state.
EndState continue_from(const UninterruptedRun& run, const SwarmConfig& cfg, std::size_t peers,
                       bool churned, std::size_t rounds = kRounds,
                       const SwarmConfig* override_cfg = nullptr) {
  graph::Rng rng;  // state comes entirely from the snapshot
  std::istringstream in(run.swarm_snapshot, std::ios::binary);
  Swarm swarm = override_cfg != nullptr ? Swarm::resume(in, rng, *override_cfg)
                                        : Swarm::resume(in, rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(peers), rng);
  if (churned) {
    std::istringstream churn_in(run.churn_snapshot, std::ios::binary);
    restore_churn_driver(churn_in, churn);  // NOT attach(): deadlines come from the stream
  }
  for (std::size_t r = swarm.rounds_elapsed(); r < rounds; ++r) {
    if (churned) churn.before_round(swarm);
    swarm.run_round();
  }
  return end_state_of(swarm, rng);
}

/// The oracle never checkpoints: a straight ReferenceSwarm run.
EndState run_reference(const SwarmConfig& cfg, std::size_t peers, bool churned) {
  graph::Rng rng(kSeed);
  ReferenceSwarm swarm(cfg, capacities(peers), rng);
  ChurnDriver<ReferenceSwarm> churn(churny_spec(), cfg, capacities(peers), rng);
  if (churned) churn.attach(swarm);
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (churned) churn.before_round(swarm);
    swarm.run_round();
  }
  return end_state_of(swarm, rng);
}

// --- resume equivalence ---------------------------------------------------

TEST(SwarmSnapshot, StaticRunResumesBitwiseIdentically) {
  constexpr std::size_t kPeers = 200;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/false, 15);
  const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/false);
  expect_bitwise_equal(run.end, resumed, "resumed vs uninterrupted (static)");
  expect_bitwise_equal(run.end, run_reference(cfg, kPeers, /*churned=*/false),
                       "reference vs uninterrupted (static)");
}

TEST(SwarmSnapshot, ChurnedRunResumesBitwiseIdentically) {
  constexpr std::size_t kPeers = 200;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 20);
  const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true);
  expect_bitwise_equal(run.end, resumed, "resumed vs uninterrupted (churned)");
  expect_bitwise_equal(run.end, run_reference(cfg, kPeers, /*churned=*/true),
                       "reference vs uninterrupted (churned)");
}

TEST(SwarmSnapshot, ResumeIsThreadCountInvariant) {
  // A snapshot taken from a serial run resumes bitwise-identically
  // under any fan-out (the config override admits exactly `threads`).
  constexpr std::size_t kPeers = 300;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 20);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    SwarmConfig threaded = cfg;
    threaded.threads = threads;
    const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true, kRounds, &threaded);
    expect_bitwise_equal(run.end, resumed, "threaded resume vs serial uninterrupted");
  }
}

TEST(SwarmSnapshot, EveryCheckpointRoundIsEquivalent) {
  // Round 0 (nothing elapsed), mid-run, and the final round (nothing
  // left to simulate) are all valid checkpoints.
  constexpr std::size_t kPeers = 120;
  const SwarmConfig cfg = base_config(kPeers);
  for (const std::size_t save_round : {std::size_t{0}, std::size_t{7}, std::size_t{23}, kRounds}) {
    const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, save_round);
    const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true);
    expect_bitwise_equal(run.end, resumed, "resumed vs uninterrupted (varying save round)");
  }
}

TEST(SwarmSnapshot, ResaveReproducesByteIdenticalStream) {
  // Serialization is a pure function of run state: save -> resume ->
  // save must reproduce the original bytes exactly.
  constexpr std::size_t kPeers = 150;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 18);
  ResumedSwarm resumed = resume_from_string(run.swarm_snapshot);
  EXPECT_EQ(save_to_string(resumed.swarm()), run.swarm_snapshot);
}

TEST(SwarmSnapshot, RoundTripFuzzAcrossSeedsAndRounds) {
  // Randomized save points and run seeds: the resumed run must match
  // the uninterrupted one and re-serialize byte-identically each time.
  constexpr std::size_t kPeers = 80;
  const SwarmConfig cfg = base_config(kPeers);
  graph::Rng meta(0xF0F0);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t seed = meta();
    const auto save_round = static_cast<std::size_t>(meta.below(kRounds + 1));
    const UninterruptedRun run =
        run_with_checkpoint(cfg, kPeers, /*churned=*/true, save_round, kRounds, seed);
    {
      ResumedSwarm resumed = resume_from_string(run.swarm_snapshot);
      ASSERT_EQ(save_to_string(resumed.swarm()), run.swarm_snapshot)
          << "seed " << seed << " save round " << save_round;
    }
    const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true);
    expect_bitwise_equal(run.end, resumed, "fuzz resumed vs uninterrupted");
  }
}

// --- fork ------------------------------------------------------------------

TEST(SwarmSnapshot, ForkUnderOriginalScheduleMatchesUninterrupted) {
  constexpr std::size_t kPeers = 150;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 20);
  std::vector<ResumedSwarm> forks = fork_snapshot(run.swarm_snapshot, 2);
  ASSERT_EQ(forks.size(), 2u);
  // Fork 0 continues the checkpointed schedule: bitwise equal to the
  // uninterrupted run.
  {
    ResumedSwarm& fork = forks[0];
    ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), fork.rng());
    std::istringstream churn_in(run.churn_snapshot, std::ios::binary);
    restore_churn_driver(churn_in, churn);
    for (std::size_t r = fork.swarm().rounds_elapsed(); r < kRounds; ++r) {
      churn.before_round(fork.swarm());
      fork.swarm().run_round();
    }
    expect_bitwise_equal(run.end, end_state_of(fork.swarm(), fork.rng()),
                         "fork 0 vs uninterrupted");
  }
  // Fork 1 explores a divergent future: triple the replacement churn.
  // It must diverge from the original (the what-if has an effect) while
  // both histories share the checkpointed prefix.
  {
    ResumedSwarm& fork = forks[1];
    ChurnSpec divergent = churny_spec();
    divergent.replacement_rate = 6.0;
    ChurnDriver<Swarm> churn(divergent, cfg, capacities(kPeers), fork.rng());
    std::istringstream churn_in(run.churn_snapshot, std::ios::binary);
    restore_churn_driver(churn_in, churn);
    const std::size_t shared_arrivals = fork.swarm().arrivals();
    for (std::size_t r = fork.swarm().rounds_elapsed(); r < kRounds; ++r) {
      churn.before_round(fork.swarm());
      fork.swarm().run_round();
    }
    EXPECT_GE(fork.swarm().arrivals(), shared_arrivals);
    EXPECT_NE(fork.swarm().departures(), run.end.departures)
        << "tripled replacement churn should change the departure count";
  }
}

// --- churn-driver state ----------------------------------------------------

TEST(SwarmSnapshot, ChurnDriverStateRoundTrips) {
  constexpr std::size_t kPeers = 100;
  const SwarmConfig cfg = base_config(kPeers);
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 10; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  std::ostringstream out(std::ios::binary);
  save_churn_driver(out, churn);
  const std::string bytes = std::move(out).str();

  graph::Rng rng2(kSeed);
  ChurnDriver<Swarm> restored(churny_spec(), cfg, capacities(kPeers), rng2);
  std::istringstream in(bytes, std::ios::binary);
  restore_churn_driver(in, restored);
  EXPECT_EQ(restored.deadline_snapshot(), churn.deadline_snapshot());
  EXPECT_EQ(restored.capacity_cursor(), churn.capacity_cursor());
}

// --- id-index compaction (the 4 B/arrival-ever fix) ------------------------

TEST(SwarmSnapshot, LoadedIdIndexHasZeroCapacitySlack) {
  // The in-process id->row map grows geometrically (capacity slack on
  // top of 4 B per id ever); PeerTable::restore rebuilds it at exactly
  // id_space entries. The loaded index must be the information-
  // theoretic floor — live rows + tombstones, nothing more.
  constexpr std::size_t kPeers = 100;
  SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, kRounds);
  ResumedSwarm resumed = resume_from_string(run.swarm_snapshot);
  const PeerTable& table = resumed.swarm().peer_table();
  EXPECT_GT(table.id_space(), kPeers + 2) << "churn should have grown the id space";
  EXPECT_EQ(table.id_map_bytes(), table.id_space() * sizeof(PeerTable::Row))
      << "loaded id->row index must carry zero capacity slack";
}

// --- robustness ------------------------------------------------------------

std::string tiny_snapshot() {
  SwarmConfig cfg = base_config(8);
  cfg.neighbor_degree = 4.0;
  cfg.num_pieces = 16;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(8), rng);
  swarm.run(3);
  return save_to_string(swarm);
}

TEST(SwarmSnapshot, RejectsBadMagic) {
  std::string bytes = tiny_snapshot();
  bytes[0] ^= 0x5A;
  EXPECT_THROW((void)resume_from_string(bytes), SnapshotError);
}

TEST(SwarmSnapshot, RejectsWrongVersion) {
  std::string bytes = tiny_snapshot();
  bytes[8] = 99;  // the version u32 follows the 8-byte magic
  EXPECT_THROW((void)resume_from_string(bytes), SnapshotError);
}

TEST(SwarmSnapshot, RejectsEveryTruncationPoint) {
  const std::string bytes = tiny_snapshot();
  // Every strictly-shorter prefix must throw — never crash, never
  // yield a swarm. Small snapshot, so all prefixes are affordable.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)resume_from_string(bytes.substr(0, len)), SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SwarmSnapshot, RejectsSingleByteCorruption) {
  const std::string bytes = tiny_snapshot();
  // Flip one byte at a time across the whole stream: the checksum (or
  // an earlier structural check) must reject every variant. The loader
  // may throw at any layer, but it must always throw SnapshotError —
  // a corrupt snapshot can never come up as a live swarm.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    EXPECT_THROW((void)resume_from_string(corrupt), SnapshotError) << "byte offset " << at;
  }
}

/// Counts the scalar and span fields a field list visits, recursing
/// into nested lists.
struct FieldCounter {
  static constexpr bool kLoading = false;
  std::size_t n = 0;
  template <class T>
  void io(const T& v) {
    if constexpr (requires { T::fields(*this, v); }) {
      T::fields(*this, v);
    } else {
      ++n;
    }
  }
  template <class C>
  void span(const C&) {
    ++n;
  }
};

TEST(SwarmSnapshot, RejectsConfigOverrideMismatch) {
  const std::string bytes = tiny_snapshot();
  SwarmConfig stored = base_config(8);
  stored.neighbor_degree = 4.0;
  stored.num_pieces = 16;
  // One edit per SwarmConfig/FaultSpec field; every one must be
  // rejected. `threads` is the only field the override may change.
  using Edit = void (*)(SwarmConfig&);
  const std::vector<Edit> edits = {
      [](SwarmConfig& c) { c.num_peers += 1; },
      [](SwarmConfig& c) { c.seeds += 1; },
      [](SwarmConfig& c) { c.num_pieces += 1; },
      [](SwarmConfig& c) { c.piece_kb *= 2.0; },
      [](SwarmConfig& c) { c.tft_slots += 1; },
      [](SwarmConfig& c) { c.optimistic_rounds += 1; },
      [](SwarmConfig& c) { c.round_seconds *= 2.0; },
      [](SwarmConfig& c) { c.neighbor_degree += 1.0; },
      [](SwarmConfig& c) { c.post_flashcrowd = !c.post_flashcrowd; },
      [](SwarmConfig& c) { c.initial_completion = 0.25; },
      [](SwarmConfig& c) { c.stay_as_seed = !c.stay_as_seed; },
      [](SwarmConfig& c) { c.seed_upload_kbps = 123.0; },
      [](SwarmConfig& c) { c.rate_smoothing = 0.75; },
      [](SwarmConfig& c) { c.tft_slots_per_peer.assign(c.num_peers, 3); },
      [](SwarmConfig& c) { c.endgame = !c.endgame; },
      [](SwarmConfig& c) { c.retain_departed = !c.retain_departed; },
      [](SwarmConfig& c) { c.faults.outage_period = 5; },
      [](SwarmConfig& c) { c.faults.outage_duration = 1; },
      [](SwarmConfig& c) { c.faults.outage_phase = 2; },
      [](SwarmConfig& c) { c.faults.connect_failure_prob = 0.1; },
      [](SwarmConfig& c) { c.faults.connect_attempts = 5; },
      [](SwarmConfig& c) { c.faults.nat_fraction = 0.1; },
      [](SwarmConfig& c) { c.faults.lane_loss_prob = 0.1; },
      [](SwarmConfig& c) { c.faults.backoff_base = 2; },
      [](SwarmConfig& c) { c.faults.backoff_cap = 32; },
  };
  FieldCounter counter;
  counter.io(stored);
  ASSERT_EQ(edits.size() + 1, counter.n) << "one edit per config field besides `threads`";

  SwarmConfig threaded = stored;
  threaded.threads = 4;
  EXPECT_NO_THROW((void)resume_from_string(bytes, threaded));
  for (std::size_t i = 0; i < edits.size(); ++i) {
    SwarmConfig cfg = threaded;
    edits[i](cfg);
    EXPECT_THROW((void)resume_from_string(bytes, cfg), SnapshotError) << "field edit " << i;
  }
}

/// resume_from_string()'s error message, or "" when it loads.
std::string resume_error(const std::string& bytes) {
  try {
    (void)resume_from_string(bytes);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "";
}

template <class T>
void patch(std::string& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof value, bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

TEST(SwarmSnapshot, ResumeRunsTheConstructorsConfigValidation) {
  // A config the constructor rejects, patched in place into a valid
  // snapshot, must be rejected by name before the checksum is reached.
  // Offsets in the config section, which starts after the 8-byte
  // magic, 4-byte version and 4-byte tag: eight 8-byte fields from
  // num_peers to neighbor_degree, the post_flashcrowd byte, then
  // initial_completion; the fault spec follows the threads field.
  constexpr std::size_t kPieceKb = 16 + 3 * 8;
  constexpr std::size_t kInitialCompletion = 16 + 8 * 8 + 1;
  constexpr std::size_t kOutagePeriod = kInitialCompletion + 8 + 1 + 8 + 8 + 8 + 1 + 1 + 8;
  constexpr std::size_t kConnectFailureProb = kOutagePeriod + 3 * 8;
  constexpr std::size_t kConnectAttempts = kConnectFailureProb + 8;
  constexpr std::size_t kBackoffBase = kConnectAttempts + 3 * 8;
  const std::string bytes = tiny_snapshot();
  // The offsets above land on the stored values.
  std::string probe = bytes;
  const SwarmConfig cfg = base_config(8);
  double stored_kb = 0.0;
  std::memcpy(&stored_kb, probe.data() + kPieceKb, 8);
  ASSERT_EQ(stored_kb, cfg.piece_kb);
  std::uint64_t stored_base = 0;
  std::memcpy(&stored_base, probe.data() + kBackoffBase, 8);
  ASSERT_EQ(stored_base, cfg.faults.backoff_base);

  const auto expect_config_error = [](const std::string& patched, const char* what) {
    const std::string error = resume_error(patched);
    EXPECT_NE(error.find("config"), std::string::npos) << what << ": " << error;
    EXPECT_EQ(error.find("checksum"), std::string::npos) << what << ": " << error;
  };
  {
    std::string b = bytes;
    patch(b, kPieceKb, std::numeric_limits<double>::quiet_NaN());
    expect_config_error(b, "NaN piece_kb");
  }
  {
    std::string b = bytes;
    patch(b, kInitialCompletion, 1.5);
    expect_config_error(b, "initial_completion 1.5");
  }
  {
    std::string b = bytes;
    patch(b, kConnectFailureProb, 2.0);
    expect_config_error(b, "connect_failure_prob 2");
  }
  {
    std::string b = bytes;
    patch(b, kConnectAttempts, std::uint64_t{0});
    expect_config_error(b, "connect_attempts 0");
  }
  {
    std::string b = bytes;
    patch(b, kBackoffBase, std::uint64_t{0});
    expect_config_error(b, "backoff_base 0");
  }
}

TEST(SwarmSnapshot, ConstructorsRejectNaNPieceSize) {
  SwarmConfig cfg = base_config(8);
  cfg.piece_kb = std::numeric_limits<double>::quiet_NaN();
  graph::Rng rng(kSeed);
  EXPECT_THROW(Swarm(cfg, capacities(8), rng), std::invalid_argument);
  EXPECT_THROW(ReferenceSwarm(cfg, capacities(8), rng), std::invalid_argument);
}

/// Multiplicative inverse of an odd word mod 2^64.
std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t x = a;  // Newton's iteration mod 2^64: 3 -> 96 correct bits
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Inverse of snapshot_detail::mix64: each xor-shift and odd multiply
/// of the SplitMix64 finalizer is a bijection on 64-bit words.
std::uint64_t unmix64(std::uint64_t z) {
  z ^= (z >> 31) ^ (z >> 62);
  z *= inverse(0x94D049BB133111EBULL);
  z ^= (z >> 27) ^ (z >> 54);
  z *= inverse(0xBF58476D1CE4E5B9ULL);
  z ^= (z >> 30) ^ (z >> 60);
  return z;
}

TEST(SwarmSnapshot, ResumeRejectsNonPositiveCapacity) {
  // The running checksum folds one 8-byte lane per double
  // (hash = hash * M + lane), so a lane k lanes before the footer
  // weighs M^k. Two fresh swarms whose leecher-3 capacities are one
  // ulp apart save streams that differ in exactly that lane, by
  // exactly 1, and their unmixed footers differ by the weight itself.
  // That re-seals a stream with the capacity patched to anything.
  SwarmConfig cfg = base_config(8);
  cfg.neighbor_degree = 4.0;
  cfg.num_pieces = 16;
  cfg.seed_upload_kbps = 500.0;  // seeds' capacity independent of leecher 3
  std::vector<double> caps = capacities(8);
  const auto fresh = [&](double kbps) {
    caps[3] = kbps;
    graph::Rng rng(kSeed);
    Swarm swarm(cfg, caps, rng);
    return save_to_string(swarm);
  };
  const double kbps = caps[3];
  const std::string bytes = fresh(kbps);
  const std::string next = fresh(std::nextafter(kbps, 2 * kbps));
  ASSERT_EQ(bytes.size(), next.size());
  std::string pattern(8, '\0');
  std::memcpy(pattern.data(), &kbps, 8);
  const std::size_t at = bytes.find(pattern);
  ASSERT_NE(at, std::string::npos);
  const std::size_t footer = bytes.size() - 8;
  for (std::size_t i = 0; i < footer; ++i) {
    if (i < at || i >= at + 8) {
      ASSERT_EQ(bytes[i], next[i]) << "byte " << i;
    }
  }
  const auto unmixed = [&](const std::string& b) {
    std::uint64_t f = 0;
    std::memcpy(&f, b.data() + footer, 8);
    return unmix64(f);
  };
  const std::uint64_t weight = unmixed(next) - unmixed(bytes);
  const auto reseal = [&](double value) {
    std::uint64_t old_lane = 0;
    std::uint64_t new_lane = 0;
    std::memcpy(&old_lane, &kbps, 8);
    std::memcpy(&new_lane, &value, 8);
    std::string b = bytes;
    patch(b, at, value);
    patch(b, footer, snapshot_detail::mix64(unmixed(bytes) + (new_lane - old_lane) * weight));
    return b;
  };
  // The re-seal is sound: a positive patched capacity loads and reads back.
  {
    const ResumedSwarm resumed = resume_from_string(reseal(2 * kbps));
    EXPECT_EQ(resumed.swarm().stats(3).upload_kbps, 2 * kbps);
  }
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string error = resume_error(reseal(bad));
    EXPECT_NE(error.find("capacity"), std::string::npos) << bad << ": " << error;
    EXPECT_EQ(error.find("checksum"), std::string::npos) << bad << ": " << error;
  }
}

TEST(TrackerSnapshot, ResumeRejectsMemberStateTheConstructorRejects) {
  // Round-0, 2-swarm streams whose swarm 1 differs only in `endgame`.
  // In SwarmConfig::fields, `retain_departed` is the 1-byte field right
  // after `endgame`; a 1-byte field folds as the lane (byte + 1), so
  // the two streams' unmixed swarm-1 footers differ by the endgame
  // lane's weight, and the retain_departed lane weighs that times M^-1.
  TrackerConfig tcfg;
  tcfg.arrival_model = BandwidthModel::saroiu2002();
  constexpr std::size_t kPeers = 10;
  const auto stream = [&](bool endgame) {
    std::vector<TrackerSwarmSeed> seeds(2);
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      SwarmConfig cfg = base_config(kPeers);
      cfg.neighbor_degree = 4.0;
      cfg.num_pieces = 16;
      cfg.endgame = k == 0 || endgame;
      seeds[k].config = cfg;
      for (std::size_t i = 0; i < kPeers; ++i) {
        seeds[k].members.push_back(static_cast<GlobalPeerId>(k * kPeers + i));
      }
    }
    TrackerSim tracker(tcfg, std::move(seeds), capacities(2 * kPeers), kSeed);
    std::ostringstream out(std::ios::binary);
    tracker.save(out);
    return std::move(out).str();
  };
  const std::string bytes = stream(true);
  const std::string other = stream(false);
  ASSERT_EQ(bytes.size(), other.size());
  const auto magic_at = [&](std::uint64_t magic, std::size_t from) {
    std::string pattern(8, '\0');
    std::memcpy(pattern.data(), &magic, 8);
    const std::size_t at = bytes.find(pattern, from);
    EXPECT_NE(at, std::string::npos);
    return at;
  };
  const std::size_t swarm0 = magic_at(kSnapshotMagic, 0);
  const std::size_t swarm1 = magic_at(kSnapshotMagic, swarm0 + 8);
  const std::size_t footer1 = magic_at(kChurnMagic, swarm1) - 8;
  std::size_t endgame_at = std::string::npos;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != other[i] && (i < footer1 || i >= footer1 + 8)) {
      ASSERT_EQ(endgame_at, std::string::npos) << "second differing byte " << i;
      endgame_at = i;
    }
  }
  ASSERT_GT(endgame_at, swarm1);
  ASSERT_LT(endgame_at, footer1);
  ASSERT_EQ(bytes[endgame_at + 1], 1) << "retain_departed follows endgame";
  const auto unmixed = [](const std::string& b, std::size_t footer) {
    std::uint64_t f = 0;
    std::memcpy(&f, b.data() + footer, 8);
    return unmix64(f);
  };
  const std::uint64_t endgame_weight = unmixed(bytes, footer1) - unmixed(other, footer1);
  const auto reseal = [&](std::string b, std::size_t footer, std::size_t at, char value,
                          std::uint64_t weight) {
    const auto delta = static_cast<std::uint64_t>(value - b[at]);
    b[at] = value;
    patch(b, footer, snapshot_detail::mix64(unmixed(b, footer) + delta * weight));
    return b;
  };
  // The re-seal is sound: clearing endgame reproduces the other stream.
  ASSERT_EQ(reseal(bytes, footer1, endgame_at, 0, endgame_weight), other);
  const auto tracker_error = [&](const std::string& b) {
    std::istringstream in(b, std::ios::binary);
    try {
      (void)TrackerSim::resume(in, tcfg);
    } catch (const SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(tracker_error(bytes), "");

  const std::string no_archive = reseal(bytes, footer1, endgame_at + 1, 0,
                                        endgame_weight * inverse(snapshot_detail::kFoldMul));
  std::string error = tracker_error(no_archive);
  EXPECT_NE(error.find("swarm 1"), std::string::npos) << error;
  EXPECT_NE(error.find("retain_departed"), std::string::npos) << error;

  // The registry is the last thing the tracker section folds, and the
  // last membership's u32 `local` (lane local + 4) is its last lane, of
  // weight 1. Records are in id order: global peer 19 is (swarm 1,
  // local 9); pointing it at local 8 duplicates peer 18's membership.
  const std::size_t footer0 = swarm0 - 8;
  std::uint32_t last_swarm = 0;
  std::uint32_t last_local = 0;
  std::memcpy(&last_swarm, bytes.data() + footer0 - 8, 4);
  std::memcpy(&last_local, bytes.data() + footer0 - 4, 4);
  ASSERT_EQ(last_swarm, 1u);
  ASSERT_EQ(last_local, kPeers - 1);
  const std::string duplicate =
      reseal(bytes, footer0, footer0 - 4, static_cast<char>(kPeers - 2), 1);
  error = tracker_error(duplicate);
  EXPECT_NE(error.find("swarm 1 peer 8"), std::string::npos) << error;
  EXPECT_EQ(error.find("checksum"), std::string::npos) << error;
}

TEST(SwarmSnapshot, StreamPathRejectsEveryTruncationAndByteFlip) {
  // resume_from_string() parses in place; the istream path refills its
  // window from the stream. Both must reject the same hostile inputs.
  const std::string bytes = tiny_snapshot();
  const auto stream_throws = [](const std::string& b) {
    std::istringstream in(b, std::ios::binary);
    graph::Rng rng;
    try {
      (void)Swarm::resume(in, rng);
    } catch (const SnapshotError&) {
      return true;
    }
    return false;
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_TRUE(stream_throws(bytes.substr(0, len))) << "prefix length " << len;
  }
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    EXPECT_TRUE(stream_throws(corrupt)) << "byte offset " << at;
  }
}

TEST(SwarmSnapshot, StringStreamFileAndForkResumesResaveIdentically) {
  // One checkpoint loaded through every entry point: the string (in
  // place), an istringstream and an ifstream (read-ahead window, with
  // the churn section following on the same stream), and forks.
  constexpr std::size_t kPeers = 150;
  SwarmConfig cfg = base_config(kPeers);
  cfg.faults.connect_failure_prob = 0.2;
  cfg.faults.lane_loss_prob = 0.05;
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 18);
  const std::string& bytes = run.swarm_snapshot;
  const std::string both = bytes + run.churn_snapshot;
  const auto driver_bytes = [&](ResumedSwarm& resumed, std::istream& in) {
    ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), resumed.rng());
    restore_churn_driver(in, churn);
    std::ostringstream out(std::ios::binary);
    save_churn_driver(out, churn);
    return std::move(out).str();
  };
  {
    const ResumedSwarm resumed = resume_from_string(both);  // trailing bytes are not read
    EXPECT_EQ(save_to_string(resumed.swarm()), bytes) << "string";
  }
  {
    std::istringstream in(both, std::ios::binary);
    ResumedSwarm resumed(in);
    EXPECT_EQ(save_to_string(resumed.swarm()), bytes) << "istringstream";
    EXPECT_EQ(driver_bytes(resumed, in), run.churn_snapshot) << "istringstream churn section";
  }
  {
    const std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) / "strat_snapshot_entry_points.snap";
    std::ofstream(path, std::ios::binary) << both;
    std::ifstream in(path, std::ios::binary);
    ResumedSwarm resumed(in);
    EXPECT_EQ(save_to_string(resumed.swarm()), bytes) << "ifstream";
    EXPECT_EQ(driver_bytes(resumed, in), run.churn_snapshot) << "ifstream churn section";
    in.close();
    std::filesystem::remove(path);
  }
  for (const ResumedSwarm& fork : fork_snapshot(bytes, 3)) {
    EXPECT_EQ(save_to_string(fork.swarm()), bytes) << "fork";
  }
}

TEST(SwarmSnapshot, ResumedRanksMatchUninterruptedWithAndWithoutArchive) {
  // The rank cache is rebuilt on its first read after resume: a
  // resumed churned swarm must report the uninterrupted run's
  // stratification and reciprocated pairs, right after loading and
  // after more churned rounds, with departed peers archived or not.
  constexpr std::size_t kPeers = 120;
  for (const bool retain : {true, false}) {
    SwarmConfig cfg = base_config(kPeers);
    cfg.retain_departed = retain;
    cfg.num_pieces = 256;  // leechers outlive the checkpoint, so live pairs exist
    graph::Rng rng(kSeed);
    Swarm swarm(cfg, capacities(kPeers), rng);
    ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
    churn.attach(swarm);
    const auto advance = [](Swarm& s, ChurnDriver<Swarm>& c, std::size_t rounds) {
      for (std::size_t r = 0; r < rounds; ++r) {
        c.before_round(s);
        s.run_round();
      }
    };
    advance(swarm, churn, 15);
    const std::string snap = save_to_string(swarm);
    std::ostringstream churn_out(std::ios::binary);
    save_churn_driver(churn_out, churn);
    ResumedSwarm resumed = resume_from_string(snap);
    ChurnDriver<Swarm> resumed_churn(churny_spec(), cfg, capacities(kPeers), resumed.rng());
    std::istringstream churn_in(std::move(churn_out).str(), std::ios::binary);
    restore_churn_driver(churn_in, resumed_churn);
    const auto compare = [&](const char* when) {
      const StratificationReport a = swarm.stratification();
      const StratificationReport b = resumed.swarm().stratification();
      EXPECT_EQ(a.reciprocated_pairs, b.reciprocated_pairs) << when << " retain " << retain;
      EXPECT_EQ(a.mean_normalized_offset, b.mean_normalized_offset) << when << " retain " << retain;
      EXPECT_EQ(a.partner_rank_correlation, b.partner_rank_correlation)
          << when << " retain " << retain;
      EXPECT_GT(a.reciprocated_pairs, 0u) << when << " retain " << retain;
      EXPECT_EQ(swarm.reciprocated_pairs(), resumed.swarm().reciprocated_pairs())
          << when << " retain " << retain;
    };
    compare("right after resume");
    advance(swarm, churn, 15);
    advance(resumed.swarm(), resumed_churn, 15);
    compare("after 15 more churned rounds");
    EXPECT_GT(swarm.departures(), 0u);
  }
}

// --- format pins -----------------------------------------------------------
//
// FNV-64 digests of save() bytes, captured before the serializers were
// rewritten as shared field lists. The re-save identity tests cannot
// see a format change made the same way on both sides; these can. A
// digest may only change together with kSnapshotVersion.

std::uint64_t fnv64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Churned and faulted swarm saved inside a tracker outage while at
/// least one peer waits out its announce backoff; the churn companion
/// section is appended to the same stream.
std::string mid_outage_stream(bool retain_departed) {
  constexpr std::size_t kPeers = 40;
  SwarmConfig cfg = base_config(kPeers);
  cfg.neighbor_degree = 8.0;
  cfg.num_pieces = 32;
  cfg.retain_departed = retain_departed;
  cfg.faults.outage_period = 6;
  cfg.faults.outage_duration = 3;
  cfg.faults.outage_phase = 1;
  cfg.faults.connect_failure_prob = 0.2;
  cfg.faults.connect_attempts = 2;
  cfg.faults.nat_fraction = 0.25;
  cfg.faults.lane_loss_prob = 0.05;
  cfg.faults.backoff_base = 1;
  cfg.faults.backoff_cap = 8;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 12; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  EXPECT_TRUE(cfg.faults.tracker_down(swarm.rounds_elapsed())) << "must save mid-outage";
  EXPECT_GT(swarm.fault_state().degraded_count(), 0u) << "a backoff deadline must be pending";
  EXPECT_GT(swarm.departures(), 0u);
  std::ostringstream out(std::ios::binary);
  swarm.save(out);
  save_churn_driver(out, churn);
  return std::move(out).str();
}

std::string tracker_stream() {
  TrackerConfig tcfg;
  tcfg.arrival_rate = 3.0;
  tcfg.zipf_exponent = 1.0;
  tcfg.multi_torrent_fraction = 0.5;
  tcfg.arrival_model = BandwidthModel::saroiu2002();
  tcfg.swarm_churn.lifetime = ChurnSpec::Lifetime::kExponential;
  tcfg.swarm_churn.lifetime_rounds = 15.0;
  tcfg.swarm_churn.arrival_completion = 0.25;
  constexpr std::size_t kSwarms = 2;
  constexpr std::size_t kPeers = 10;
  std::vector<TrackerSwarmSeed> seeds(kSwarms);
  for (std::size_t k = 0; k < kSwarms; ++k) {
    SwarmConfig cfg = base_config(kPeers);
    cfg.neighbor_degree = 4.0;
    cfg.num_pieces = 16;
    seeds[k].config = cfg;
    seeds[k].members.resize(kPeers);
    for (std::size_t i = 0; i < kPeers; ++i) {
      seeds[k].members[i] = static_cast<GlobalPeerId>(k * kPeers + i);
    }
  }
  TrackerSim tracker(tcfg, std::move(seeds), capacities(kSwarms * kPeers), kSeed);
  tracker.run(8);
  std::ostringstream out(std::ios::binary);
  tracker.save(out);
  return std::move(out).str();
}

TEST(SnapshotFormat, TinyStaticSwarmDigest) {
  EXPECT_EQ(fnv64(tiny_snapshot()), 0x6a406fa4a768af89ULL);
}

TEST(SnapshotFormat, MidOutageChurnedSwarmDigest) {
  EXPECT_EQ(fnv64(mid_outage_stream(/*retain_departed=*/true)), 0x419545857297be44ULL);
}

TEST(SnapshotFormat, MidOutageAggregatesOnlySwarmDigest) {
  EXPECT_EQ(fnv64(mid_outage_stream(/*retain_departed=*/false)), 0x9920b8c629398faaULL);
}

TEST(SnapshotFormat, TwoSwarmTrackerDigest) {
  EXPECT_EQ(fnv64(tracker_stream()), 0x164e36e425e11b65ULL);
}

TEST(SwarmSnapshot, RejectsChurnSectionAsSwarmSnapshot) {
  SwarmConfig cfg = base_config(8);
  graph::Rng rng(kSeed);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(8), rng);
  std::ostringstream out(std::ios::binary);
  save_churn_driver(out, churn);
  EXPECT_THROW((void)resume_from_string(std::move(out).str()), SnapshotError);
}

}  // namespace
}  // namespace strat::bt
