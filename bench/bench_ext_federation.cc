// Extension bench: sharded control plane with eventually-consistent gossip.
//
// The paper's Phoenix is a single logical scheduler scanning the whole fleet
// every heartbeat. This sweep partitions the fleet across N scheduler shards
// (src/federation): each shard heartbeats only its own territory and learns
// the rest of the fleet through gossiped digests (per-dimension CRV load,
// mean E[W], free slots) over the control-plane fabric. Cells sweep
// shards x gossip period x fabric chaos and report:
//
//   * heartbeat_span — the largest per-tick worker scan of any shard,
//     ceil(nodes/shards): the evidence that no single shard's heartbeat
//     runs an O(fleet) loop (the unsharded span equals the fleet);
//   * short-job p90 queuing delay vs the unsharded baseline — the placement
//     cost of scheduling on a stale view;
//   * the gossip/offload/bind counter columns — stale digests dropped,
//     offloads blocked on staleness, and the optimistic cross-shard bind
//     accept/reject traffic resolved through the redispatch path.
//
// Every cell runs with the invariant auditor on: stale views may degrade
// placement (rejects, blocked offloads), never correctness.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "federation/shard_map.h"
#include "metrics/percentile.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  auto o = bench::ParseBenchOptions(flags, 200, 2);
  if (!flags.Provided("load")) o.load = 0.5;
  // Correctness evidence rides in every cell unless explicitly disabled.
  if (!flags.Provided("audit")) o.obs.audit = true;
  bench::PrintHeader("Extension: sharded control plane (CRV gossip)", o,
                     "beyond-paper: the paper's scheduler is unsharded");

  const auto trace = bench::MakeTrace("google", o);
  const auto cluster = bench::MakeCluster(o.nodes, o.seed);

  const std::vector<std::uint32_t> shard_counts = {1, 2, 4};
  const std::vector<double> gossip_periods = {1.5, 9.0};

  bench::JsonEmitter emitter(
      "bench_ext_federation",
      "shards x gossip period x fabric chaos; heartbeat_span shows the "
      "per-shard scan bound, fed_* counters the gossip/offload/bind traffic");
  emitter.AddCommonConfig(o);
  emitter.config().Add("audit", o.obs.audit);

  util::TextTable t({"shards", "gossip", "chaos", "span", "short p90 qdelay",
                     "slowdown", "applied", "stale", "offloads", "binds",
                     "rejects"});
  double baseline = 0;
  for (const std::uint32_t shards : shard_counts) {
    for (const double period : gossip_periods) {
      for (const bool chaos : {false, true}) {
        // The unsharded fleet has no gossip: one baseline cell is enough.
        if (shards == 1 && (period != gossip_periods.front() || chaos)) {
          continue;
        }
        runner::RunOptions ro;
        ro.scheduler = "phoenix";
        ro.config.seed = o.seed;
        ro.config.net = o.net;
        ro.config.rpc = o.rpc;
        ro.obs = o.obs.Tagged(util::StrFormat("shards%u-gossip%g%s", shards,
                                              period, chaos ? "-chaos" : ""));
        ro.federation = o.federation;
        ro.federation.shards = shards;
        ro.federation.gossip_period = period;
        if (chaos) {
          // Lossy, jittery control plane: gossip digests (and everything
          // else) get dropped, duplicated, delayed, and reordered.
          // Staleness bounds and strict version ordering must absorb it.
          ro.config.net.model = net::LatencyModel::kLognormal;
          ro.config.net.drop_rate = 0.05;
          ro.config.net.duplicate_rate = 0.05;
          ro.config.net.reorder_rate = 0.10;
        }
        const runner::RepeatedRuns runs(trace, cluster, ro, o.runs);
        const double p90 = runs.MeanQueuingPercentile(
            90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
        if (baseline == 0) baseline = p90;  // first cell: unsharded, ideal
        const double slowdown = p90 / baseline;
        const auto c = runner::AggregateCounters(runs.reports());
        const std::size_t span =
            federation::ShardMap(o.nodes, shards).max_span();
        t.AddRow({util::StrFormat("%u", shards),
                  util::StrFormat("%.1fs", period), chaos ? "on" : "off",
                  util::WithCommas(static_cast<std::int64_t>(span)),
                  util::HumanDuration(p90),
                  util::StrFormat("%.2fx", slowdown),
                  util::WithCommas(
                      static_cast<std::int64_t>(c.fed_gossip_applied)),
                  util::WithCommas(
                      static_cast<std::int64_t>(c.fed_gossip_stale_dropped)),
                  util::WithCommas(static_cast<std::int64_t>(c.fed_offloads)),
                  util::WithCommas(
                      static_cast<std::int64_t>(c.fed_bind_attempts)),
                  util::WithCommas(
                      static_cast<std::int64_t>(c.fed_bind_rejects))});
        auto& cell = emitter.NewCell();
        cell.AddInt("shards", shards)
            .Add("gossip_period", period)
            .Add("chaos", chaos)
            .AddInt("heartbeat_span", span)
            .Add("short_p90_qdelay", p90)
            .Add("slowdown", slowdown)
            .AddInt("fed_gossip_published", c.fed_gossip_published)
            .AddInt("fed_gossip_applied", c.fed_gossip_applied)
            .AddInt("fed_gossip_stale_dropped", c.fed_gossip_stale_dropped)
            .AddInt("fed_offloads", c.fed_offloads)
            .AddInt("fed_offloads_blocked_stale", c.fed_offloads_blocked_stale)
            .AddInt("fed_cross_shard_probes", c.fed_cross_shard_probes)
            .AddInt("fed_bind_attempts", c.fed_bind_attempts)
            .AddInt("fed_bind_accepts", c.fed_bind_accepts)
            .AddInt("fed_bind_rejects", c.fed_bind_rejects)
            .AddInt("fed_territory_fallbacks", c.fed_territory_fallbacks);
        bench::AddThroughput(cell, runs.reports());
      }
    }
  }
  std::printf("%s\n", t.ToString().c_str());
  if (!json_path.empty() && !emitter.WriteTo(json_path)) return 1;
  std::printf(
      "expected shape: heartbeat_span shrinks as ceil(nodes/shards) while "
      "the p90 slowdown stays modest; chaos raises stale drops, blocked "
      "offloads, and bind rejects — never auditor violations\n");
  return 0;
}
