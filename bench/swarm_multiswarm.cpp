// Scenario driver: peers split across overlapping swarms.
//
// Multi-homed peers divide their upload capacity across their swarms,
// so inside each swarm they rank below their single-homed capacity
// twins — the matching model predicts they land in lower strata and
// download proportionally less per swarm. This driver sweeps the
// overlap fraction and reports the single- vs multi-homed aggregate
// rates plus per-swarm stratification.
//
// The overlap layout is a closed TrackerSim: swarm k holds global ids
// [k*stride, k*stride + peers), consecutive swarms share peers - stride
// of them, `--threads` is the shard count, and with no churn and
// finished leechers staying on as seeds no membership is ever lost, so
// every peer keeps its construction-time capacity split.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bittorrent/bandwidth.hpp"
#include "bittorrent/tracker_sim.hpp"
#include "sim/parallel.hpp"

int main(int argc, char** argv) {
  using namespace strat;
  const sim::Cli cli(argc, argv,
                     {"swarms", "peers", "warmup", "window", "threads", "seed", "csv"});
  const auto swarms = static_cast<std::size_t>(cli.get_int("swarms", 2));
  const auto peers = static_cast<std::size_t>(cli.get_int("peers", 80));
  const auto warmup = static_cast<std::size_t>(cli.get_int("warmup", 10));
  const auto window = static_cast<std::size_t>(cli.get_int("window", 30));
  const auto threads = static_cast<std::size_t>(
      cli.get_int("threads", static_cast<std::int64_t>(sim::recommended_threads())));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 51));
  if (swarms == 0 || peers < 2) {
    throw std::invalid_argument("swarm_multiswarm: need --swarms >= 1 and --peers >= 2");
  }

  bench::banner(cli, "Multi-swarm overlap sweep (" + std::to_string(swarms) + " swarms x " +
                         std::to_string(peers) + " peers)");

  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();

  sim::Table table({"overlap", "distinct peers", "multi-homed", "single-home kbps",
                    "multi-home kbps", "multi/single ratio", "mean partner-rank corr",
                    "mean completion round"});
  for (const double overlap : {0.0, 0.2, 0.4}) {
    const auto shared = static_cast<std::size_t>(overlap * static_cast<double>(peers));
    const std::size_t stride = peers - shared;
    const std::size_t distinct = (swarms - 1) * stride + peers;

    bt::SwarmConfig config;
    config.num_pieces = 512;
    config.piece_kb = 256.0;
    // peers leechers plus one seed: a mean degree above `peers` cannot
    // be drawn, so small smoke runs clamp it.
    config.neighbor_degree = std::min(25.0, static_cast<double>(peers));
    config.initial_completion = 0.5;
    std::vector<bt::TrackerSwarmSeed> layout(swarms);
    std::vector<std::size_t> memberships(distinct, 0);
    for (std::size_t k = 0; k < swarms; ++k) {
      layout[k].config = config;
      for (std::size_t local = 0; local < peers; ++local) {
        layout[k].members.push_back(static_cast<bt::GlobalPeerId>(k * stride + local));
        ++memberships[k * stride + local];
      }
    }
    bt::TrackerConfig tcfg;
    tcfg.shards = threads;
    bt::TrackerSim tracker(tcfg, std::move(layout), model.representative_sample(distinct), seed);
    tracker.run(warmup);
    tracker.reset_stratification();
    tracker.run(window);

    // Per-membership rates: each swarm carries distinct content, so the
    // comparable figure is a peer's mean rate inside one swarm.
    std::vector<double> total_rate(distinct, 0.0);
    double corr = 0.0;
    double completion = 0.0;
    for (std::size_t k = 0; k < swarms; ++k) {
      const bt::Swarm& swarm = tracker.swarm(k);
      for (std::size_t local = 0; local < peers; ++local) {
        total_rate[k * stride + local] +=
            swarm.leech_download_kbps(static_cast<core::PeerId>(local));
      }
      corr += swarm.stratification().partner_rank_correlation;
      double completion_sum = 0.0;
      std::size_t completion_count = 0;
      for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
        const double done = swarm.stats(p).completion_round;
        if (swarm.is_leecher(p) && done >= 0.0) {
          completion_sum += done;
          ++completion_count;
        }
      }
      completion += completion_count == 0
                        ? 0.0
                        : completion_sum / static_cast<double>(completion_count);
    }
    std::size_t single_peers = 0;
    std::size_t multi_peers = 0;
    double single_sum = 0.0;
    double multi_sum = 0.0;
    for (std::size_t i = 0; i < distinct; ++i) {
      const double per_swarm_rate = total_rate[i] / static_cast<double>(memberships[i]);
      if (memberships[i] <= 1) {
        ++single_peers;
        single_sum += per_swarm_rate;
      } else {
        ++multi_peers;
        multi_sum += per_swarm_rate;
      }
    }
    const double single_kbps =
        single_peers == 0 ? 0.0 : single_sum / static_cast<double>(single_peers);
    const double multi_kbps = multi_peers == 0 ? 0.0 : multi_sum / static_cast<double>(multi_peers);
    const auto k = static_cast<double>(swarms);
    const double ratio = single_kbps > 0.0 ? multi_kbps / single_kbps : 0.0;
    table.add_row({sim::fmt(overlap, 2), std::to_string(distinct), std::to_string(multi_peers),
                   sim::fmt(single_kbps, 0), sim::fmt(multi_kbps, 0), sim::fmt(ratio, 3),
                   sim::fmt(corr / k, 3), sim::fmt(completion / k, 1)});
  }
  bench::emit(cli, table);
  bench::out(cli)
      << "\n(a multi-homed peer brings 1/k of its capacity to each swarm and drops\n"
         " into lower strata there: its in-swarm download rate falls below its\n"
         " single-homed capacity twins' — divided attention is punished exactly\n"
         " as the stratification model says)\n";
  return 0;
}
