#include "bittorrent/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/parallel.hpp"

namespace strat::bt {

namespace {

ScenarioResult summarize(const Swarm& swarm, std::uint64_t seed) {
  ScenarioResult out;
  out.seed = seed;
  out.completed_leechers = swarm.completed_leechers();
  const FaultState& faults = swarm.fault_state();
  out.fault_failed_announces = faults.failed_announces_;
  out.fault_retries = faults.announce_retries_;
  out.fault_connect_failures = faults.connect_failures_;
  out.fault_nat_rejections = faults.nat_rejections_;
  out.fault_lost_lanes = faults.lost_lanes_;

  // Every leecher that ever joined (initial population + arrivals),
  // with capacities read back from the swarm.
  std::vector<core::PeerId> leechers;
  leechers.reserve(swarm.peer_count());
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    if (swarm.is_leecher(p)) leechers.push_back(p);
  }

  double completion_sum = 0.0;
  std::size_t completion_count = 0;
  double rate_sum = 0.0;
  std::vector<double> rates(leechers.size(), 0.0);
  for (std::size_t i = 0; i < leechers.size(); ++i) {
    const core::PeerId id = leechers[i];
    rates[i] = swarm.leech_download_kbps(id);
    rate_sum += rates[i];
    const double done = swarm.stats(id).completion_round;
    if (done >= 0.0) {
      completion_sum += done;
      ++completion_count;
    }
  }
  out.mean_completion_round =
      completion_count == 0 ? 0.0 : completion_sum / static_cast<double>(completion_count);
  out.mean_leech_kbps =
      leechers.empty() ? 0.0 : rate_sum / static_cast<double>(leechers.size());

  if (!leechers.empty()) {
    // Deciles by capacity descending (ties by id) — the ranking
    // convention of the efficiency model.
    std::vector<std::size_t> order(leechers.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double ca = swarm.stats(leechers[a]).upload_kbps;
      const double cb = swarm.stats(leechers[b]).upload_kbps;
      if (ca != cb) return ca > cb;
      return leechers[a] < leechers[b];
    });
    const std::size_t decile = std::max<std::size_t>(1, leechers.size() / 10);
    double top = 0.0;
    double bottom = 0.0;
    for (std::size_t i = 0; i < decile; ++i) {
      top += rates[order[i]];
      bottom += rates[order[leechers.size() - 1 - i]];
    }
    out.top_decile_kbps = top / static_cast<double>(decile);
    out.bottom_decile_kbps = bottom / static_cast<double>(decile);
  }

  out.strat = swarm.stratification();
  out.availability_cv = swarm.availability_stats().coefficient_of_variation;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    out.total_uploaded_kb += swarm.stats(p).uploaded_kb;
    out.total_downloaded_kb += swarm.stats(p).downloaded_kb;
  }
  out.arrivals = swarm.arrivals();
  out.departures = swarm.departures();
  out.live_peers = swarm.live_peer_count();
  return out;
}

}  // namespace

ScenarioResult run_scenario(const SwarmScenario& scenario, std::uint64_t seed) {
  if (!scenario.config.retain_departed) {
    // summarize() reads every leecher that ever joined; without the
    // archive those queries throw mid-aggregation. Fail up front with
    // an actionable message instead.
    throw std::invalid_argument(
        "run_scenario: retain_departed=false is unsupported (summaries cover departed peers)");
  }
  graph::Rng rng(seed);
  Swarm swarm(scenario.config, scenario.upload_kbps, rng);
  if (!scenario.churn.active()) {
    swarm.run(scenario.warmup_rounds);
    swarm.reset_stratification();
    swarm.run(scenario.measure_rounds);
    return summarize(swarm, seed);
  }
  std::vector<double> pool = scenario.churn.arrival_upload_kbps.empty()
                                 ? scenario.upload_kbps
                                 : scenario.churn.arrival_upload_kbps;
  ChurnDriver<Swarm> driver(scenario.churn, scenario.config, std::move(pool), rng);
  driver.attach(swarm);
  for (std::size_t r = 0; r < scenario.warmup_rounds; ++r) {
    driver.before_round(swarm);
    swarm.run_round();
  }
  swarm.reset_stratification();
  for (std::size_t r = 0; r < scenario.measure_rounds; ++r) {
    driver.before_round(swarm);
    swarm.run_round();
  }
  return summarize(swarm, seed);
}

std::vector<ScenarioResult> run_replications(const SwarmScenario& scenario,
                                             std::span<const std::uint64_t> seeds,
                                             std::size_t threads) {
  std::vector<ScenarioResult> results(seeds.size());
  sim::parallel_for_chunks(seeds.size(), threads, 1,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             for (std::size_t i = begin; i < end; ++i) {
                               results[i] = run_scenario(scenario, seeds[i]);
                             }
                           });
  return results;
}

std::vector<std::size_t> capacity_scaled_slots(const std::vector<double>& upload_kbps,
                                               std::size_t lo, std::size_t hi) {
  if (lo < 1 || lo > hi) {
    throw std::invalid_argument("capacity_scaled_slots: need 1 <= lo <= hi");
  }
  double log_min = 0.0;
  double log_max = 0.0;
  bool first = true;
  for (double kbps : upload_kbps) {
    if (kbps <= 0.0) throw std::invalid_argument("capacity_scaled_slots: capacities > 0");
    const double l = std::log(kbps);
    log_min = first ? l : std::min(log_min, l);
    log_max = first ? l : std::max(log_max, l);
    first = false;
  }
  std::vector<std::size_t> slots(upload_kbps.size());
  const double span = log_max - log_min;
  for (std::size_t i = 0; i < upload_kbps.size(); ++i) {
    if (span <= 0.0) {
      slots[i] = (lo + hi) / 2;  // uniform capacities: middle of the range
      continue;
    }
    const double t = (std::log(upload_kbps[i]) - log_min) / span;
    slots[i] = lo + static_cast<std::size_t>(
                        std::llround(t * static_cast<double>(hi - lo)));
  }
  return slots;
}

}  // namespace strat::bt
