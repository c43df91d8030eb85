// Extension bench: elastic cluster lifecycle under shaped load.
//
// The paper evaluates Phoenix on a fixed fleet; real heterogeneous
// datacenters grow and shrink. This sweep runs the elasticity controller
// (src/elastic) over two load shapes — bursty (short intense episodes) and
// diurnal (long half-duty swells) — crossed with transient-pool reclamation
// pressure, for Phoenix and the comparison schedulers. The base fleet is
// sized to the trace load; the reserve pool absorbs reactive scale-ups and
// the transient pool supplies cheap-but-revocable capacity that drains and
// redispatches work when reclaimed.
//
// Reported per cell: short-job p90 queuing delay, measured utilization over
// delivered machine-seconds (the in-service integral, not the static
// universe), and the lifecycle counters — commissions, drains, reclamations,
// forced-retire redispatches, and warm-up seconds wasted on leases that
// never started a task.
//
// `--json=PATH` additionally writes every cell as machine-readable JSON.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "metrics/percentile.h"

using namespace phoenix;

namespace {

struct Cell {
  std::string scheduler;
  std::string shape;
  double reclaim_rate = 0;
  double short_p90 = 0;
  double utilization = 0;
  std::uint64_t commissions = 0;
  std::uint64_t drains = 0;
  std::uint64_t reclamations = 0;
  std::uint64_t forced_retires = 0;
  std::uint64_t redispatched = 0;
  std::uint64_t crv_shaped = 0;
  double wasted_warmup = 0;
  std::uint64_t events = 0;
  double wall = 0;
};

bench::JsonEmitter MakeEmitter(const bench::BenchOptions& o,
                               std::size_t reserve, std::size_t transient,
                               double warmup, double grace,
                               double reclaim_grace,
                               const std::vector<Cell>& cells) {
  bench::JsonEmitter emitter(
      "ext_elasticity",
      "elastic cluster lifecycle (reactive + CRV-shaped scaling, transient "
      "reclamation)");
  emitter.AddCommonConfig(o);
  emitter.config()
      .AddInt("reserve", reserve)
      .AddInt("transient", transient)
      .Add("warmup_delay_s", warmup)
      .Add("drain_grace_s", grace)
      .Add("reclaim_grace_s", reclaim_grace);
  for (const Cell& c : cells) {
    auto& cell = emitter.NewCell();
    cell.Add("scheduler", c.scheduler)
        .Add("shape", c.shape)
        .Add("reclaim_rate_per_s", c.reclaim_rate)
        .Add("short_p90_queuing_s", c.short_p90)
        .Add("utilization", c.utilization)
        .AddInt("commissions", c.commissions)
        .AddInt("drains", c.drains)
        .AddInt("reclamations", c.reclamations)
        .AddInt("forced_retires", c.forced_retires)
        .AddInt("tasks_redispatched", c.redispatched)
        .AddInt("crv_shaped_picks", c.crv_shaped)
        .Add("wasted_warmup_s", c.wasted_warmup);
    bench::AddThroughput(cell, c.events, c.wall);
  }
  return emitter;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  // Elasticity knobs, declared before the common set so `--help` leads with
  // them. 0 on the pool sizes means "derive from --nodes".
  const std::string json_path = flags.GetString("json", "");
  std::size_t reserve = static_cast<std::size_t>(flags.GetInt("reserve", 0));
  std::size_t transient =
      static_cast<std::size_t>(flags.GetInt("transient", 0));
  const double warmup = flags.GetDouble("warmup", 30.0);
  const double grace = flags.GetDouble("drain-grace", 60.0);
  const double reclaim_grace = flags.GetDouble("reclaim-grace", 15.0);
  const double target_wait = flags.GetDouble("target-wait", 5.0);
  auto o = bench::ParseBenchOptions(flags, 120, 2);
  if (reserve == 0) reserve = o.nodes / 2;
  if (transient == 0) transient = o.nodes / 4;
  bench::PrintHeader("Extension: elastic lifecycle under shaped load", o,
                     "beyond-paper: the paper's fleets are fixed-size");
  std::printf("universe: base=%zu reserve=%zu transient=%zu (warmup=%gs, "
              "drain grace=%gs, reclaim grace=%gs)\n\n",
              o.nodes, reserve, transient, warmup, grace, reclaim_grace);

  // Two shaped variants of the Google profile, from the shared preset table
  // (src/trace/generators.h). Flash-crowd: rare, intense, minute-scale
  // episodes that outrun the warm-up delay. Diurnal: a gentle half-duty
  // swell slow enough for reactive scaling to track.
  const std::vector<trace::LoadShapePreset> shapes = {
      trace::ShapeByName("flash-crowd"),
      trace::ShapeByName("diurnal"),
  };
  // Mean transient lease lifetimes of infinity, 20 min, 5 min.
  const std::vector<double> reclaim_rates = {0.0, 1.0 / 1200.0, 1.0 / 300.0};

  const auto cluster = bench::MakeCluster(o.nodes + reserve + transient,
                                          o.seed);

  std::FILE* tsv = nullptr;
  if (!o.tsv.empty()) {
    tsv = std::fopen(o.tsv.c_str(), "a");
    if (tsv != nullptr) {
      std::fseek(tsv, 0, SEEK_END);
      if (std::ftell(tsv) == 0) {
        std::fprintf(tsv,
                     "scheduler\tshape\treclaim_rate\tshort_p90\tutil\t"
                     "commissions\tdrains\treclaims\tredispatched\n");
      }
    }
  }

  std::vector<Cell> cells;
  for (const std::string sched : {"phoenix", "eagle-c", "hawk-c"}) {
    std::printf("--- %s ---\n", sched.c_str());
    util::TextTable t({"shape", "reclaim", "short p90 qdelay", "util",
                       "commissions", "drains", "reclaims", "forced",
                       "redisp", "crv picks", "wasted warmup"});
    for (const trace::LoadShapePreset& shape : shapes) {
      auto gen = trace::ProfileByName("google");
      gen.num_jobs = o.jobs;
      gen.num_workers = o.nodes;
      gen.target_load = o.load;
      gen.seed = o.seed;
      trace::ApplyLoadShape(shape, gen);
      const auto trace = trace::GenerateTrace(shape.name, gen);
      for (const double rate : reclaim_rates) {
        runner::RunOptions ro;
        ro.scheduler = sched;
        ro.config.seed = o.seed;
        ro.config.net = o.net;
        ro.config.rpc = o.rpc;
        ro.obs = o.obs.Tagged(sched + "-" + shape.name + "-reclaim" +
                              util::StrFormat("%g", rate));
        ro.elastic.enabled = true;
        ro.elastic.base_machines = o.nodes;
        ro.elastic.reserve_machines = reserve;
        ro.elastic.transient_machines = transient;
        ro.elastic.transient_target = transient;
        ro.elastic.warmup_delay = warmup;
        ro.elastic.drain_grace = grace;
        ro.elastic.reclaim_grace = reclaim_grace;
        ro.elastic.reclaim_rate = rate;
        ro.elastic.target_wait = target_wait;
        const runner::RepeatedRuns runs(trace, cluster, ro, o.runs);
        const double p90 = runs.MeanQueuingPercentile(
            90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
        const double util = runs.MeanUtilization();
        Cell c;
        c.scheduler = sched;
        c.shape = shape.name;
        c.reclaim_rate = rate;
        c.short_p90 = p90;
        c.utilization = util;
        for (const auto& r : runs.reports()) {
          c.commissions += r.counters.elastic_commissions;
          c.drains += r.counters.elastic_drains;
          c.reclamations += r.counters.elastic_reclamations;
          c.forced_retires += r.counters.elastic_retires_forced;
          c.redispatched += r.counters.elastic_tasks_redispatched;
          c.crv_shaped += r.counters.elastic_crv_shaped_picks;
          c.wasted_warmup += r.counters.elastic_wasted_warmup_seconds;
          c.events += r.events_fired;
          c.wall += r.sim_wall_seconds;
        }
        cells.push_back(c);
        t.AddRow({shape.name,
                  rate > 0 ? util::StrFormat("1/%.0fs", 1.0 / rate) : "off",
                  util::HumanDuration(p90),
                  util::StrFormat("%.1f%%", 100 * util),
                  util::WithCommas(static_cast<std::int64_t>(c.commissions)),
                  util::WithCommas(static_cast<std::int64_t>(c.drains)),
                  util::WithCommas(static_cast<std::int64_t>(c.reclamations)),
                  util::WithCommas(
                      static_cast<std::int64_t>(c.forced_retires)),
                  util::WithCommas(static_cast<std::int64_t>(c.redispatched)),
                  util::WithCommas(static_cast<std::int64_t>(c.crv_shaped)),
                  util::StrFormat("%.0fs", c.wasted_warmup)});
        if (tsv != nullptr) {
          std::fprintf(
              tsv, "%s\t%s\t%.6f\t%.6f\t%.4f\t%llu\t%llu\t%llu\t%llu\n",
              sched.c_str(), shape.name, rate, p90, util,
              static_cast<unsigned long long>(c.commissions),
              static_cast<unsigned long long>(c.drains),
              static_cast<unsigned long long>(c.reclamations),
              static_cast<unsigned long long>(c.redispatched));
        }
      }
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  if (tsv != nullptr) std::fclose(tsv);
  if (!json_path.empty() &&
      !MakeEmitter(o, reserve, transient, warmup, grace, reclaim_grace, cells)
           .WriteTo(json_path)) {
    return 1;
  }
  std::printf(
      "expected shape: reclamation pressure costs tail latency (forced "
      "retires redispatch in-flight work) but never loses jobs; Phoenix's "
      "CRV-shaped scale-ups keep constrained demand supplied where the "
      "baselines pick capacity blindly\n");
  return 0;
}
