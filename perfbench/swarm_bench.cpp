// Swarm simulator benchmark: three workloads driven only through the
// library's public API (Swarm, ChurnDriver, TrackerSim, snapshots and
// the profile/report accessors), every timing taken by wall clock.
//
//   swarm_bench --workload <static_large|ecosystem_churn|churn_checkpoint>
//               --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// runs three legs of the same rounds in one process: untraced at 4
// workers, traced at 4 workers, untraced at 1 worker; it prints the
// per-layer metrics, the tracing overhead and writes the spans to
// <state-dir>/trace-<workload>-s<seed>.jsonl. The last stdout line is
// always one JSON object {correct, attempted, failed, metrics}.
// perfbench/README.md documents workloads, metrics and predictions.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"
#include "graph/rng.hpp"

namespace {

using namespace strat;
using Clock = std::chrono::steady_clock;
using Profile = bt::Swarm::PhaseProfile;
using Driver = bt::ChurnDriver<bt::Swarm>;

/// Intra-round threads (Swarm) or shards (TrackerSim) of every timed
/// leg: the caller plus three pool threads. Fixed rather than taken
/// from the host, so results compare across machines.
constexpr std::size_t kWorkers = 4;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mb(double bytes) { return bytes / (1024.0 * 1024.0); }

// --- tracing -----------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t round = -1;   // simulated round, -1 = not tied to one
  std::int64_t parent = -1;  // index of the enclosing span, -1 = root
  double start_s = 0.0;      // since the tracer was created
  double dur_s = 0.0;
};

/// In-memory span recorder; spans are written out once, at the end.
class Tracer {
 public:
  std::size_t open(std::string name, std::int64_t round) {
    const std::int64_t parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({std::move(name), round, parent, since(origin_), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    spans_[id].dur_s = since(origin_) - spans_[id].start_s;
    stack_.pop_back();
  }

  /// A child built from a profile delta: the library reports how long a
  /// phase took, not when it started, so children are laid end to end
  /// from `start_s` in phase order.
  std::size_t add(std::string name, std::int64_t round, std::size_t parent, double start_s,
                  double dur_s) {
    spans_.push_back({std::move(name), round, static_cast<std::int64_t>(parent), start_s, dur_s});
    return spans_.size() - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  [[nodiscard]] double total(std::string_view name) const {
    double s = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) s += span.dur_s;
    }
    return s;
  }

  /// Per span: its duration minus the durations of its direct children.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_s;
    for (const Span& span : spans_) {
      if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.dur_s;
    }
    return self;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; does nothing without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::size_t round)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, static_cast<std::int64_t>(round)) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::size_t id_;
};

// --- checks and snapshot byte sinks ------------------------------------

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Receives save() output without materializing it.
class ByteSink : public std::streambuf {
 protected:
  virtual void consume(const char* s, std::size_t n) = 0;
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    consume(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      consume(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
};

/// 64-bit FNV-1a digest of a byte stream.
class Fnv1a final : public ByteSink {
 public:
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 protected:
  void consume(const char* s, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ static_cast<unsigned char>(s[i])) * 0x100000001B3ULL;
    }
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Compares a byte stream against an expected string as it arrives.
class SameBytes final : public ByteSink {
 public:
  explicit SameBytes(std::string_view expect) : expect_(expect) {}
  [[nodiscard]] bool matches() const noexcept { return ok_ && pos_ == expect_.size(); }

 protected:
  void consume(const char* s, std::size_t n) override {
    if (ok_ && (n > expect_.size() - pos_ || std::memcmp(expect_.data() + pos_, s, n) != 0)) {
      ok_ = false;
    }
    pos_ += n;
  }

 private:
  std::string_view expect_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

bool resaves_identical(const std::string& snapshot, const std::function<void(std::ostream&)>& save) {
  SameBytes sink(snapshot);
  std::ostream out(&sink);
  save(out);
  return sink.matches();
}

// --- inputs --------------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<double> sample_capacities(std::size_t n, std::uint64_t seed) {
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(seed);
  std::vector<double> out(n);
  for (double& c : out) c = model.sample(rng);
  return out;
}

/// The 10^5-peer round economy of the thread-scaling baseline: 1024
/// pieces of 1 MB, degree 30, leechers half complete (post flash crowd).
bt::SwarmConfig large_piece_economy(std::size_t leechers) {
  bt::SwarmConfig cfg;
  cfg.num_peers = leechers;
  cfg.seeds = 1;
  cfg.num_pieces = 1024;
  cfg.piece_kb = 1024.0;
  cfg.neighbor_degree = 30.0;
  cfg.initial_completion = 0.5;
  cfg.threads = kWorkers;
  return cfg;
}

struct SwarmInputs {
  bt::SwarmConfig config;
  std::vector<double> capacities;
  std::uint64_t rng_seed = 0;
  std::optional<bt::ChurnSpec> churn;
  std::vector<double> arrival_pool;
  std::size_t checkpoint_every = 0;  // 0 = checkpoints only after the timed rounds
};

SwarmInputs static_large_inputs(std::uint64_t seed) {
  constexpr std::size_t kLeechers = 100000;
  SwarmInputs in;
  in.config = large_piece_economy(kLeechers);
  in.capacities = sample_capacities(kLeechers, derive_seed(seed, 1));
  in.rng_seed = derive_seed(seed, 2);
  return in;
}

SwarmInputs churn_checkpoint_inputs(std::uint64_t seed) {
  constexpr std::size_t kLeechers = 20000;
  SwarmInputs in;
  in.config = large_piece_economy(kLeechers);
  in.config.endgame = true;
  in.config.faults.outage_period = 10;  // the BM_SwarmFaults/1 regime
  in.config.faults.outage_duration = 3;
  in.config.faults.connect_failure_prob = 0.2;
  in.config.faults.connect_attempts = 2;
  in.config.faults.nat_fraction = 0.25;
  in.config.faults.lane_loss_prob = 0.05;
  in.capacities = sample_capacities(kLeechers, derive_seed(seed, 1));
  in.rng_seed = derive_seed(seed, 2);
  bt::ChurnSpec spec;
  spec.replacement_rate = bt::paper_replacement_rate(20.0, kLeechers);
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 10;
  in.churn = spec;
  in.arrival_pool = sample_capacities(kLeechers, derive_seed(seed, 3));
  in.checkpoint_every = 10;
  return in;
}

struct TrackerInputs {
  bt::TrackerConfig config;
  std::vector<bt::TrackerSwarmSeed> seeds;
  std::vector<double> capacities;
  std::uint64_t tracker_seed = 0;
};

/// The BM_TrackerSimShards/1000 ecosystem: 1000 swarms x 16 peers,
/// Zipf 1.0 popularity, 200 arrivals per round, 30% multi-torrent,
/// exponential 25-round lifetimes, completed leechers depart. Member
/// swarms use degree 15 and the large piece economy instead of degree 6
/// and 64 x 64 KB pieces: with those, tit-for-tat has no partner choice
/// and no time to rank partners, so no stratification forms, and rounds
/// of a few ms are dominated by host scheduling noise (perfbench/README.md).
TrackerInputs ecosystem_churn_inputs(std::uint64_t seed) {
  constexpr std::size_t kSwarms = 1000;
  constexpr std::size_t kPeers = 16;
  TrackerInputs in;
  in.config.shards = kWorkers;
  in.config.arrival_rate = 0.2 * static_cast<double>(kSwarms);
  in.config.zipf_exponent = 1.0;
  in.config.multi_torrent_fraction = 0.3;
  in.config.arrival_model = bt::BandwidthModel::saroiu2002();
  in.config.swarm_churn.lifetime = bt::ChurnSpec::Lifetime::kExponential;
  in.config.swarm_churn.lifetime_rounds = 25.0;
  in.config.swarm_churn.arrival_completion = 0.25;
  in.capacities = sample_capacities(kSwarms * kPeers, derive_seed(seed, 1));
  // Global ids dealt to swarms in a seed-shuffled order.
  std::vector<bt::GlobalPeerId> ids(kSwarms * kPeers);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<bt::GlobalPeerId>(i);
  graph::Rng shuffle(derive_seed(seed, 3));
  for (std::size_t i = ids.size() - 1; i > 0; --i) std::swap(ids[i], ids[shuffle.below(i + 1)]);
  in.seeds.resize(kSwarms);
  for (std::size_t k = 0; k < kSwarms; ++k) {
    bt::SwarmConfig& cfg = in.seeds[k].config;
    cfg = large_piece_economy(kPeers);
    cfg.neighbor_degree = 15.0;  // the most a 17-peer initial swarm allows
    cfg.stay_as_seed = false;
    in.seeds[k].members.assign(ids.begin() + static_cast<std::ptrdiff_t>(k * kPeers),
                               ids.begin() + static_cast<std::ptrdiff_t>((k + 1) * kPeers));
  }
  in.tracker_seed = derive_seed(seed, 2);
  return in;
}

// --- one leg: set up, warm up, timed rounds, checkpoints, checks --------

struct LegSpec {
  std::size_t workers = kWorkers;
  Tracer* tracer = nullptr;        // traces the timed rounds and what follows
  std::size_t setups = 1;          // constructions timed; the last one runs
  std::size_t warmup = 0;
  std::size_t rounds = 0;          // timed rounds
  std::size_t end_checkpoints = 0;
};

struct LegResult {
  std::vector<double> setup_s;
  std::vector<double> round_s;       // churn step + run_round, per timed round
  std::vector<double> checkpoint_s;  // save + resume, per checkpoint
  std::vector<double> live;          // live peers (memberships) at each timed round's start
  std::uint64_t digest = 0;          // of the final save() bytes
  double data_plane_bytes = 0.0;
  double snapshot_bytes = 0.0;       // summed over checkpoints
  double correlation = 0.0;
  Profile phases;                    // per-round profile deltas summed over timed rounds
  Profile faults;                    // lifetime fault counters, end minus start
  std::size_t joins = 0;
  std::size_t leaves = 0;
  double barrier_s = 0.0;
  double shard_s = 0.0;
  double imbalance_s = 0.0;
  std::size_t live_memberships = 0;
  std::size_t arrivals = 0;
  std::size_t departures = 0;

};

void add_phases(Profile& acc, const Profile& after, const Profile& before) {
  acc.choke_seconds += after.choke_seconds - before.choke_seconds;
  acc.endgame_seconds += after.endgame_seconds - before.endgame_seconds;
  acc.mutual_seconds += after.mutual_seconds - before.mutual_seconds;
  acc.transfer_seconds += after.transfer_seconds - before.transfer_seconds;
  acc.fold_seconds += after.fold_seconds - before.fold_seconds;
  acc.transfer_compute_seconds += after.transfer_compute_seconds - before.transfer_compute_seconds;
  acc.transfer_commit_seconds += after.transfer_commit_seconds - before.transfer_commit_seconds;
  acc.transfer_rerun_seconds += after.transfer_rerun_seconds - before.transfer_rerun_seconds;
  acc.transfer_lanes += after.transfer_lanes - before.transfer_lanes;
  acc.transfer_reruns += after.transfer_reruns - before.transfer_reruns;
  acc.fault_seconds += after.fault_seconds - before.fault_seconds;
}

/// Fault counters are lifetime totals (they survive save/resume), so
/// the timed window's counts are end minus start.
Profile fault_window(const Profile& end, const Profile& start) {
  Profile out;
  out.fault_failed_announces = end.fault_failed_announces - start.fault_failed_announces;
  out.fault_retries = end.fault_retries - start.fault_retries;
  out.fault_connect_failures = end.fault_connect_failures - start.fault_connect_failures;
  out.fault_nat_rejections = end.fault_nat_rejections - start.fault_nat_rejections;
  out.fault_lost_lanes = end.fault_lost_lanes - start.fault_lost_lanes;
  return out;
}

/// One round's phase split as children of its run_round span, in the
/// order run_round executes them.
void add_phase_spans(Tracer& tracer, std::size_t parent, std::int64_t round, const Profile& after,
                     const Profile& before) {
  Profile d;
  add_phases(d, after, before);
  double at = tracer.spans()[parent].start_s;
  const auto child = [&](const char* name, double dur, std::size_t under, double& cursor) {
    const std::size_t id = tracer.add(name, round, under, cursor, dur);
    cursor += dur;
    return id;
  };
  child("swarm.fault", d.fault_seconds, parent, at);
  child("swarm.choke", d.choke_seconds, parent, at);
  child("swarm.endgame", d.endgame_seconds, parent, at);
  child("swarm.mutual", d.mutual_seconds, parent, at);
  double inner = at;
  const std::size_t transfer = child("swarm.transfer", d.transfer_seconds, parent, at);
  child("swarm.transfer_compute", d.transfer_compute_seconds, transfer, inner);
  double rerun_at = inner;
  const std::size_t commit = child("swarm.transfer_commit", d.transfer_commit_seconds, transfer, inner);
  child("swarm.transfer_rerun", d.transfer_rerun_seconds, commit, rerun_at);
  child("swarm.fold", d.fold_seconds, parent, at);
}

/// A fresh or resumed swarm together with the generator it draws from
/// (Swarm and ChurnDriver hold references to it).
struct SwarmHolder {
  std::unique_ptr<graph::Rng> rng;
  std::optional<bt::Swarm> fresh;
  std::optional<bt::ResumedSwarm> resumed;
  std::optional<Driver> driver;

  bt::Swarm& swarm() { return resumed ? resumed->swarm() : *fresh; }
  graph::Rng& generator() { return resumed ? resumed->rng() : *rng; }
  void reset() {
    driver.reset();
    fresh.reset();
    resumed.reset();
    rng.reset();
  }
};

std::string save_driver(const Driver& driver) {
  std::ostringstream out(std::ios::binary);
  bt::save_churn_driver(out, driver);
  return std::move(out).str();
}

/// Resumes swarm + driver into an emptied holder. `cfg` may differ from
/// the saved config in `threads` only.
void resume_into(SwarmHolder& h, const SwarmInputs& in, const bt::SwarmConfig& cfg,
                 const std::string& snap, const std::string& driver_snap) {
  h.resumed.emplace(bt::resume_from_string(snap, cfg));
  if (in.churn) {
    h.driver.emplace(*in.churn, cfg, in.arrival_pool, h.generator());
    std::istringstream din(driver_snap, std::ios::binary);
    bt::restore_churn_driver(din, *h.driver);
  }
}

/// Save swarm + driver, drop the run, resume both and continue on the
/// resumed pair (the autosave / recover path).
void checkpoint_swarm(SwarmHolder& h, const SwarmInputs& in, const bt::SwarmConfig& cfg,
                      Tracer* tracer, LegResult& res, Checks& checks) {
  const std::size_t round = h.swarm().rounds_elapsed();
  const auto t0 = Clock::now();
  std::string snap;
  std::string driver_snap;
  {
    const Scope span(tracer, "snapshot.save", round);
    snap = bt::save_to_string(h.swarm());
    if (h.driver) driver_snap = save_driver(*h.driver);
  }
  const double save_s = since(t0);
  h.reset();
  const auto t1 = Clock::now();
  {
    const Scope span(tracer, "snapshot.resume", round);
    resume_into(h, in, cfg, snap, driver_snap);
  }
  res.checkpoint_s.push_back(save_s + since(t1));
  res.snapshot_bytes += static_cast<double>(snap.size() + driver_snap.size());
  checks.expect(resaves_identical(snap, [&](std::ostream& o) { h.swarm().save(o); }),
                "resumed swarm re-saves byte-identical (round " + std::to_string(round) + ")");
  if (h.driver) {
    checks.expect(save_driver(*h.driver) == driver_snap,
                  "resumed churn driver re-saves byte-identical (round " + std::to_string(round) +
                      ")");
  }
}

bool conserves_bytes(const bt::Swarm& swarm) {
  double up = 0.0;
  double down = 0.0;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    up += swarm.stats(p).uploaded_kb;
    down += swarm.stats(p).downloaded_kb;
  }
  return std::abs(up - down) <= 1e-9 * std::max(1.0, std::max(up, down));
}

LegResult run_swarm_leg(const SwarmInputs& in, const LegSpec& leg, Checks& checks) {
  LegResult res;
  bt::SwarmConfig cfg = in.config;
  cfg.threads = leg.workers;
  SwarmHolder h;
  for (std::size_t s = 0; s < leg.setups; ++s) {
    h.reset();
    const auto t0 = Clock::now();
    h.rng = std::make_unique<graph::Rng>(in.rng_seed);
    h.fresh.emplace(cfg, in.capacities, *h.rng);
    if (in.churn) {
      h.driver.emplace(*in.churn, cfg, in.arrival_pool, *h.rng);
      h.driver->attach(h.swarm());
    }
    res.setup_s.push_back(since(t0));
  }

  Tracer* tracer = nullptr;
  Profile fault_start;
  Profile last;
  for (std::size_t r = 0; r < leg.warmup + leg.rounds; ++r) {
    const bool timed = r >= leg.warmup;
    if (r == leg.warmup) {
      tracer = leg.tracer;
      fault_start = h.swarm().phase_profile();
    }
    bt::Swarm& swarm = h.swarm();
    const std::size_t round = swarm.rounds_elapsed();
    std::size_t live = 0;
    Profile before;
    std::size_t span_id = 0;
    const auto t0 = Clock::now();
    {
      const Scope round_span(tracer, "round", round);
      if (h.driver) {
        const std::size_t arrivals = swarm.arrivals();
        const std::size_t departures = swarm.departures();
        {
          const Scope span(tracer, "churn.before_round", round);
          h.driver->before_round(swarm);
        }
        if (timed) {
          res.joins += swarm.arrivals() - arrivals;
          res.leaves += swarm.departures() - departures;
        }
      }
      live = swarm.live_peer_count();
      before = swarm.phase_profile();
      const Scope span(tracer, "swarm.run_round", round);
      span_id = span.id();
      swarm.run_round();
    }
    const double wall = since(t0);
    if (!timed) continue;
    res.round_s.push_back(wall);
    res.live.push_back(static_cast<double>(live));
    last = swarm.phase_profile();
    add_phases(res.phases, last, before);
    if (tracer != nullptr) {
      add_phase_spans(*tracer, span_id, static_cast<std::int64_t>(round), last, before);
    }
    if (in.checkpoint_every > 0 && (r + 1 - leg.warmup) % in.checkpoint_every == 0) {
      checkpoint_swarm(h, in, cfg, tracer, res, checks);
    }
  }
  res.faults = fault_window(last, fault_start);
  for (std::size_t c = 0; c < leg.end_checkpoints; ++c) {
    checkpoint_swarm(h, in, cfg, tracer, res, checks);
  }

  const bt::Swarm& swarm = h.swarm();
  checks.expect(conserves_bytes(swarm), "byte conservation over every peer ever");
  {
    const Scope span(tracer, "report.stratification", swarm.rounds_elapsed());
    res.correlation = swarm.stratification().partner_rank_correlation;
  }
  checks.expect(res.correlation > 0.0, "partner_rank_correlation > 0");
  {
    const Scope span(tracer, "report.memory_footprint", swarm.rounds_elapsed());
    const auto fp = swarm.memory_footprint();
    res.data_plane_bytes = static_cast<double>(fp.peer_state_bytes + fp.edge_slot_bytes);
  }

  // The digest covers the final state as a kWorkers run would save it:
  // `threads` is part of the saved config, so a run at another thread
  // count is re-saved through a resume that overrides only `threads`.
  if (leg.workers != kWorkers) {
    const std::string snap = bt::save_to_string(h.swarm());
    const std::string driver_snap = h.driver ? save_driver(*h.driver) : std::string();
    h.reset();
    bt::SwarmConfig as_workers = cfg;
    as_workers.threads = kWorkers;
    resume_into(h, in, as_workers, snap, driver_snap);
  }
  Fnv1a digest;
  std::ostream out(&digest);
  h.swarm().save(out);
  if (h.driver) bt::save_churn_driver(out, *h.driver);
  res.digest = digest.value();
  return res;
}

void checkpoint_tracker(std::optional<bt::TrackerSim>& sim, const bt::TrackerConfig& cfg,
                        Tracer* tracer, LegResult& res, Checks& checks) {
  const std::size_t round = sim->rounds_elapsed();
  const auto t0 = Clock::now();
  std::string snap;
  {
    const Scope span(tracer, "snapshot.save", round);
    std::ostringstream out(std::ios::binary);
    sim->save(out);
    snap = std::move(out).str();
  }
  const double save_s = since(t0);
  sim.reset();
  const auto t1 = Clock::now();
  {
    const Scope span(tracer, "snapshot.resume", round);
    std::istringstream in(snap, std::ios::binary);
    sim.emplace(bt::TrackerSim::resume(in, cfg));
  }
  res.checkpoint_s.push_back(save_s + since(t1));
  res.snapshot_bytes += static_cast<double>(snap.size());
  checks.expect(resaves_identical(snap, [&](std::ostream& o) { sim->save(o); }),
                "resumed tracker re-saves byte-identical (round " + std::to_string(round) + ")");
}

std::pair<std::size_t, std::size_t> member_turnover(const bt::TrackerSim& sim) {
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  for (std::size_t k = 0; k < sim.swarm_count(); ++k) {
    arrivals += sim.swarm(k).arrivals();
    departures += sim.swarm(k).departures();
  }
  return {arrivals, departures};
}

LegResult run_tracker_leg(const TrackerInputs& in, const LegSpec& leg, Checks& checks) {
  LegResult res;
  bt::TrackerConfig cfg = in.config;
  cfg.shards = leg.workers;
  std::optional<bt::TrackerSim> sim;
  for (std::size_t s = 0; s < leg.setups; ++s) {
    sim.reset();
    const auto t0 = Clock::now();
    sim.emplace(cfg, in.seeds, in.capacities, in.tracker_seed);
    res.setup_s.push_back(since(t0));
  }

  Tracer* tracer = nullptr;
  Profile fault_start;
  std::pair<std::size_t, std::size_t> turnover_start;
  for (std::size_t r = 0; r < leg.warmup + leg.rounds; ++r) {
    const bool timed = r >= leg.warmup;
    if (r == leg.warmup) {
      tracer = leg.tracer;
      fault_start = sim->ecosystem_profile().swarms;
      turnover_start = member_turnover(*sim);
    }
    const std::size_t round = sim->rounds_elapsed();
    const std::size_t live = timed ? sim->live_membership_count() : 0;
    const bt::EcosystemProfile before = sim->ecosystem_profile();
    const auto t0 = Clock::now();
    std::size_t span_id = 0;
    {
      const Scope span(tracer, "tracker.run_round", round);
      span_id = span.id();
      sim->run_round();
    }
    const double wall = since(t0);
    if (!timed) continue;
    res.round_s.push_back(wall);
    res.live.push_back(static_cast<double>(live));
    const bt::EcosystemProfile after = sim->ecosystem_profile();
    add_phases(res.phases, after.swarms, before.swarms);
    const double barrier = after.barrier_seconds - before.barrier_seconds;
    const double shard = after.shard_seconds - before.shard_seconds;
    res.barrier_s += barrier;
    res.shard_s += shard;
    res.imbalance_s += after.shard_imbalance_seconds - before.shard_imbalance_seconds;
    if (tracer != nullptr) {
      const auto round_id = static_cast<std::int64_t>(round);
      const double at = tracer->spans()[span_id].start_s;
      tracer->add("tracker.barrier", round_id, span_id, at, barrier);
      tracer->add("tracker.shard", round_id, span_id, at + barrier, shard);
    }
  }
  res.faults = fault_window(sim->ecosystem_profile().swarms, fault_start);
  const auto turnover = member_turnover(*sim);
  res.arrivals = turnover.first - turnover_start.first;
  res.departures = turnover.second - turnover_start.second;
  res.live_memberships = sim->live_membership_count();
  for (std::size_t c = 0; c < leg.end_checkpoints; ++c) {
    checkpoint_tracker(sim, cfg, tracer, res, checks);
  }

  for (std::size_t k = 0; k < sim->swarm_count(); ++k) {
    checks.expect(conserves_bytes(sim->swarm(k)),
                  "byte conservation in member swarm " + std::to_string(k));
  }
  {
    const Scope span(tracer, "report.ecosystem_report", sim->rounds_elapsed());
    res.correlation = sim->ecosystem_report().mean_partner_rank_correlation;
  }
  checks.expect(res.correlation > 0.0, "mean partner_rank_correlation > 0");
  {
    const Scope span(tracer, "report.memory_footprint", sim->rounds_elapsed());
    for (std::size_t k = 0; k < sim->swarm_count(); ++k) {
      const auto fp = sim->swarm(k).memory_footprint();
      res.data_plane_bytes += static_cast<double>(fp.peer_state_bytes + fp.edge_slot_bytes);
    }
  }
  // Shard count is not saved, so every leg's bytes compare directly.
  Fnv1a digest;
  std::ostream out(&digest);
  sim->save(out);
  res.digest = digest.value();
  return res;
}

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t warmup;
  double nominal_round_s;  // reference-machine wall per timed round
  std::size_t min_rounds;
  std::size_t setups;
  std::size_t end_checkpoints;
};

// --seconds fixes the timed round count through the nominal round cost
// (4-core Xeon, gcc 12 Release), so every run of a seed does the same
// simulated work and its final state can be compared across runs.
// BENCHMARK.json gates ecosystem_churn and churn_checkpoint only;
// static_large runs by name (perfbench/README.md says why).
constexpr Workload kWorkloads[] = {
    {"static_large", 3, 0.62, 30, 5, 5},
    {"ecosystem_churn", 100, 0.021, 200, 9, 5},
    {"churn_checkpoint", 10, 0.17, 40, 5, 0},
};

std::size_t timed_rounds(const Workload& w, double seconds) {
  const auto n = static_cast<std::size_t>(std::llround(seconds / w.nominal_round_s));
  return std::max(w.min_rounds, n);
}

// --- metrics and reporting -------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over timed rounds of live peers ÷ round wall. The ratio of the
/// sums tracks the host's stalls more than the program: its spread over
/// ten seeds was 0.27 on ecosystem_churn, the median's 0.15.
double peer_rounds_per_s(const LegResult& leg) {
  std::vector<double> rate(leg.round_s.size());
  for (std::size_t i = 0; i < rate.size(); ++i) rate[i] = leg.live[i] / leg.round_s[i];
  return median(rate);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// The highest percentile with at least ten timed rounds beyond it. Its
/// run-to-run spread on a shared host exceeds any bound the benchmark
/// may set, so it is reported with the per-layer metrics (no bound).
Metric round_tail(const LegResult& leg) {
  std::vector<double> sorted = leg.round_s;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t ix = n > 10 ? n - 11 : n - 1;
  char note[64];
  std::snprintf(note, sizeof note, "p%.1f of %zu timed rounds",
                100.0 * static_cast<double>(ix + 1) / static_cast<double>(n), n);
  return {"round_ms_tail", 1000.0 * sorted[ix], "ms", note};
}

std::vector<Metric> end_to_end(const LegResult& leg) {
  const std::string rounds = std::to_string(leg.round_s.size()) + " timed rounds";
  return {
      {"peer_rounds_per_s", peer_rounds_per_s(leg), "peer-rounds/s", rounds},
      {"round_ms_p50", 1000.0 * median(leg.round_s), "ms", rounds},
      {"checkpoint_ms_p50", 1000.0 * median(leg.checkpoint_s), "ms",
       std::to_string(leg.checkpoint_s.size()) + " checkpoints"},
      {"setup_s", median(leg.setup_s), "s", std::to_string(leg.setup_s.size()) + " setups"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"},
  };
}

/// Wall time of run_round as its profile partitions it.
double phase_sum(const Profile& p) {
  return p.fault_seconds + p.choke_seconds + p.endgame_seconds + p.mutual_seconds +
         p.transfer_seconds + p.fold_seconds;
}

/// (mutual + transfer commit + fault step) / run_round: the serial phases.
double serial_share(const Profile& p) {
  const double total = phase_sum(p);
  return total > 0.0 ? (p.mutual_seconds + p.transfer_commit_seconds + p.fault_seconds) / total
                     : 0.0;
}

std::vector<Metric> per_layer(const LegResult& traced, const LegResult& untraced,
                              const LegResult& one_worker, const Tracer& tracer,
                              bool tracker) {
  const double rounds = static_cast<double>(traced.round_s.size());
  const Profile& p = traced.phases;
  const auto per_round_ms = [&](double seconds) { return 1000.0 * seconds / rounds; };
  // Member swarms of a tracker run are not called by the benchmark, so
  // their round time is the sum of their phases.
  const double run_round_s = tracker ? phase_sum(p) : tracer.total("swarm.run_round");
  // Amdahl's law takes the serial share of the serial (1-worker) run. A
  // tracker round's serial part is its barrier: member swarms' own
  // serial phases run in parallel across shards.
  const double serial_1t = tracker ? one_worker.barrier_s / (one_worker.barrier_s + one_worker.shard_s)
                                   : serial_share(one_worker.phases);
  const auto workers = static_cast<double>(kWorkers);
  const double checkpoints = static_cast<double>(traced.checkpoint_s.size());
  const double save_s = tracer.total("snapshot.save");
  const double resume_s = tracer.total("snapshot.resume");
  const double untraced_rate = peer_rounds_per_s(untraced);
  const double traced_rate = peer_rounds_per_s(traced);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"swarm.run_round_ms", per_round_ms(run_round_s), "ms", ""},
      {"swarm.choke_ms", per_round_ms(p.choke_seconds), "ms", ""},
      {"swarm.fold_ms", per_round_ms(p.fold_seconds), "ms", ""},
      {"swarm.transfer_compute_ms", per_round_ms(p.transfer_compute_seconds), "ms", ""},
      {"swarm.mutual_ms", per_round_ms(p.mutual_seconds), "ms", ""},
      {"swarm.transfer_commit_ms", per_round_ms(p.transfer_commit_seconds), "ms", ""},
      {"swarm.transfer_rerun_ms", per_round_ms(p.transfer_rerun_seconds), "ms", ""},
      {"swarm.endgame_ms", per_round_ms(p.endgame_seconds), "ms", ""},
      {"swarm.fault_ms", per_round_ms(p.fault_seconds), "ms", ""},
      {"swarm.transfer_lanes", count(p.transfer_lanes), "count", "timed rounds"},
      {"swarm.transfer_reruns", count(p.transfer_reruns), "count", "timed rounds"},
      {"swarm.rerun_frac", p.rerun_fraction(), "ratio", "reruns / lanes"},
      {"swarm.serial_frac", serial_share(p), "ratio", "(mutual + commit + fault) / run_round"},
      {"swarm.data_plane_mb", mb(traced.data_plane_bytes), "MB", "peer_state + edge_slot"},
      {"sim.amdahl_ceiling", 1.0 / (serial_1t + (1.0 - serial_1t) / workers), "x",
       "1 / (s + (1 - s) / 4), s = serial share of the 1-worker leg"},
      {"sim.speedup_1t", median(one_worker.round_s) / median(untraced.round_s), "x",
       "median round, 1-worker leg / 4-worker leg"},
      {"churn.before_round_ms", per_round_ms(tracer.total("churn.before_round")), "ms", ""},
      {"churn.joins", static_cast<double>(traced.joins), "count", "timed rounds"},
      {"churn.leaves", static_cast<double>(traced.leaves), "count", "timed rounds"},
      {"faults.failed_announces", count(traced.faults.fault_failed_announces), "count", ""},
      {"faults.retries", count(traced.faults.fault_retries), "count", ""},
      {"faults.connect_failures", count(traced.faults.fault_connect_failures), "count", ""},
      {"faults.nat_rejections", count(traced.faults.fault_nat_rejections), "count", ""},
      {"faults.lost_lanes", count(traced.faults.fault_lost_lanes), "count", ""},
      {"snapshot.save_ms", checkpoints > 0 ? 1000.0 * save_s / checkpoints : 0.0, "ms",
       "per checkpoint"},
      {"snapshot.resume_ms", checkpoints > 0 ? 1000.0 * resume_s / checkpoints : 0.0, "ms",
       "per checkpoint"},
      {"snapshot.bytes", checkpoints > 0 ? traced.snapshot_bytes / checkpoints : 0.0, "bytes",
       "per checkpoint"},
      {"snapshot.mb_per_s",
       save_s + resume_s > 0.0 ? mb(traced.snapshot_bytes) / (save_s + resume_s) : 0.0, "MB/s",
       "snapshot MB / (save + resume)"},
      {"tracker.run_round_ms", per_round_ms(tracer.total("tracker.run_round")), "ms", ""},
      {"tracker.barrier_ms", per_round_ms(traced.barrier_s), "ms", ""},
      {"tracker.shard_ms", per_round_ms(traced.shard_s), "ms", ""},
      {"tracker.imbalance_ms", per_round_ms(traced.imbalance_s), "ms", ""},
      {"tracker.imbalance_frac", traced.shard_s > 0.0 ? traced.imbalance_s / traced.shard_s : 0.0,
       "ratio", "imbalance / shard"},
      {"tracker.live_memberships", static_cast<double>(traced.live_memberships), "count",
       "at the last timed round"},
      {"tracker.arrivals", static_cast<double>(traced.arrivals), "count", "timed rounds"},
      {"tracker.departures", static_cast<double>(traced.departures), "count", "timed rounds"},
      {"trace.overhead_frac", (untraced_rate - traced_rate) / untraced_rate, "ratio",
       "(untraced - traced) / untraced peer_rounds_per_s"},
  };
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("-- %s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %-14s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void print_json(bool correct, const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", checks.attempted, checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void write_trace(const std::filesystem::path& file, const Tracer& tracer) {
  std::ofstream out(file);
  const std::vector<double> self = tracer.self_times();
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"round\": %lld, \"parent\": %lld, "
                  "\"start_ms\": %.6f, \"dur_ms\": %.6f, \"self_ms\": %.6f}\n",
                  i, spans[i].name.c_str(), static_cast<long long>(spans[i].round),
                  static_cast<long long>(spans[i].parent), 1000.0 * spans[i].start_s,
                  1000.0 * spans[i].dur_s, 1000.0 * self[i]);
    out << line;
  }
}

void print_span_summary(const Tracer& tracer) {
  const std::vector<double> self = tracer.self_times();
  std::vector<std::string> names;
  for (const Span& s : tracer.spans()) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) names.push_back(s.name);
  }
  std::printf("-- spans (total and self wall time)\n");
  for (const std::string& name : names) {
    std::size_t n = 0;
    double total = 0.0;
    double self_total = 0.0;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.spans()[i].name != name) continue;
      ++n;
      total += tracer.spans()[i].dur_s;
      self_total += self[i];
    }
    std::printf("  %-26s %6zu spans %12.3f ms total %12.3f ms self\n", name.c_str(), n,
                1000.0 * total, 1000.0 * self_total);
  }
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

/// Compares the final-state digest with any earlier run of the same
/// workload, seed and round count built from the same sources.
void check_digest_history(const std::filesystem::path& dir, const std::string& key,
                          std::uint64_t digest, Checks& checks) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / (key + ".digest");
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  std::ifstream in(file);
  std::string seen;
  if (in >> seen) {
    checks.expect(seen == hex, "final save() digest equals the earlier run's (" + key + ")");
    return;
  }
  const std::filesystem::path tmp = dir / (key + ".digest.tmp");
  std::ofstream(tmp) << hex << "\n";
  std::filesystem::rename(tmp, file);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path state_dir;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--state-dir") {
      o.state_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

int run(const Options& o) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (o.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload '" + o.workload + "'");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("workload %s seed %llu trace %d\n", w->name, static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0);
  std::printf("machine nproc %zu, cpu \"%s\", avx512 %s, workers %zu\n", online_cpus(),
              cpu_model().c_str(), __builtin_cpu_supports("avx512f") ? "yes" : "no", kWorkers);
  std::printf("build %s, compiler %s\n", build_type.c_str(), PERFBENCH_COMPILER);
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = build_type == "Release";
#endif
  if (!release) {
    std::fprintf(stderr, "swarm_bench: refusing to report numbers from a %s build\n",
                 build_type.c_str());
    return 3;
  }

  const std::size_t rounds = timed_rounds(*w, o.seconds);
  std::printf("rounds: %zu warm-up, %zu timed\n", w->warmup, rounds);
  std::fflush(stdout);
  const bool tracker = std::string_view(w->name) == "ecosystem_churn";
  std::optional<TrackerInputs> tracker_in;
  std::optional<SwarmInputs> swarm_in;
  if (tracker) {
    tracker_in = ecosystem_churn_inputs(o.seed);
  } else {
    swarm_in = std::string_view(w->name) == "static_large" ? static_large_inputs(o.seed)
                                                            : churn_checkpoint_inputs(o.seed);
  }
  Checks checks;
  const auto leg = [&](const LegSpec& spec) {
    return tracker ? run_tracker_leg(*tracker_in, spec, checks)
                   : run_swarm_leg(*swarm_in, spec, checks);
  };

  // A traced run reports no set-up or checkpoint time of its untraced
  // leg, so that leg builds once and skips the end-of-run checkpoints.
  LegSpec spec{kWorkers, nullptr, o.trace ? 1 : w->setups, w->warmup, rounds,
               o.trace ? 0 : w->end_checkpoints};
  const LegResult untraced = leg(spec);
  checks.attempted += rounds;  // every timed round is one operation; a throw aborts the run
  const std::vector<Metric> e2e = end_to_end(untraced);
  const Metric tail = round_tail(untraced);
  print_metrics(o.trace ? "end-to-end of the untraced leg (set-up and checkpoints timed only "
                          "with --trace 0)"
                        : "end-to-end (untraced, 4 workers)",
                e2e);
  print_metrics("tail (untraced, 4 workers)", {tail});
  std::printf("  correlation %.4f, digest %016llx\n", untraced.correlation,
              static_cast<unsigned long long>(untraced.digest));

  const std::string key = std::string(w->name) + "-s" + std::to_string(o.seed) + "-r" +
                          std::to_string(rounds);
  check_digest_history(o.state_dir, key, untraced.digest, checks);

  std::vector<Metric> layers;
  if (o.trace) {
    Tracer tracer;
    spec.tracer = &tracer;
    spec.end_checkpoints = w->end_checkpoints;
    const LegResult traced = leg(spec);
    spec.tracer = nullptr;
    spec.workers = 1;
    spec.end_checkpoints = 0;
    const LegResult one_worker = leg(spec);
    checks.attempted += 2 * rounds;
    checks.expect(traced.digest == untraced.digest, "traced run digest equals untraced");
    checks.expect(one_worker.digest == untraced.digest, "1-worker leg digest equals 4-worker");
    layers = per_layer(traced, untraced, one_worker, tracer, tracker);
    layers.insert(layers.begin(), tail);
    print_span_summary(tracer);
    print_metrics("per-layer (traced, 4 workers)", layers);
    std::printf("  tracing overhead: %.1f untraced vs %.1f traced peer-rounds/s\n",
                peer_rounds_per_s(untraced), peer_rounds_per_s(traced));
    if (!o.state_dir.empty()) {
      const auto file = o.state_dir / ("trace-" + std::string(w->name) + "-s" +
                                       std::to_string(o.seed) + ".jsonl");
      write_trace(file, tracer);
      std::printf("  spans written to %s\n", file.string().c_str());
    }
  }

  std::printf("failed_frac %.6f ratio (%zu failed of %zu attempted)\n",
              static_cast<double>(checks.failed) / static_cast<double>(checks.attempted),
              checks.failed, checks.attempted);
  print_json(checks.failed == 0, checks, o.trace ? layers : e2e);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swarm_bench: %s\n", e.what());
    return 1;
  }
}
