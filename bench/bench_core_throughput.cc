// Simulator-core throughput: simulated events/sec and tasks/sec for one
// run, swept over fleet scale and scheduler. This is the meta-benchmark the
// perf work is graded on — it measures the harness, not the paper — so its
// cells carry wall-clock numbers that are machine-dependent and must never
// be diffed byte-for-byte (unlike the paper-figure benches).
//
// The committed BENCH_core_throughput.json is the regression baseline the
// CI perf-smoke gate compares against (scripts/check.sh: fail on >25 %
// events/sec regression at reduced scale).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"

using namespace phoenix;

namespace {

// "1000,15000,100000" -> {1000, 15000, 100000}.
std::vector<std::size_t> ParseScales(const std::string& spec) {
  std::vector<std::size_t> scales;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!tok.empty()) {
      const long v = std::strtol(tok.c_str(), nullptr, 10);
      if (v <= 0) {
        std::fprintf(stderr, "--scales expects positive integers, got '%s'\n",
                     tok.c_str());
        std::exit(1);
      }
      scales.push_back(static_cast<std::size_t>(v));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (scales.empty()) {
    std::fprintf(stderr, "--scales must name at least one fleet size\n");
    std::exit(1);
  }
  return scales;
}

std::vector<std::string> ParseSchedulers(const std::string& spec) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!tok.empty()) names.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (names.empty()) {
    std::fprintf(stderr, "--schedulers must name at least one scheduler\n");
    std::exit(1);
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  const std::string scales_spec = flags.GetString("scales", "1000,15000");
  const std::string sched_spec =
      flags.GetString("schedulers", "phoenix,eagle-c,hawk-c");
  // Trace size scales with the fleet so per-worker load stays comparable
  // across cells (the default --jobs=50*nodes would make 100k workers
  // unaffordable as a routine benchmark).
  const std::size_t jobs_per_node =
      static_cast<std::size_t>(flags.GetInt("jobs-per-node", 4));
  auto o = bench::ParseBenchOptions(flags, 1000, 1);
  if (o.paper && !flags.Provided("scales")) {
    // Full sweep for the committed artifact.
    o.nodes = 1000;
  }
  const std::vector<std::size_t> scales =
      ParseScales(o.paper && !flags.Provided("scales") ? "1000,15000,100000"
                                                       : scales_spec);
  const std::vector<std::string> schedulers = ParseSchedulers(sched_spec);
  // Throughput cells time a single-threaded engine drain; overlapping runs
  // would contend for cores and corrupt the wall-clock numbers.
  runner::SetExperimentThreads(1);

  bench::PrintHeader("Core throughput: simulated events/sec by fleet scale",
                     o, "harness meta-benchmark (no paper figure)");

  bench::JsonEmitter json("core_throughput",
                          "Simulated events/sec and tasks/sec per single-run "
                          "engine drain, by scheduler and fleet scale");
  json.AddCommonConfig(o);
  json.config()
      .AddInt("jobs_per_node", jobs_per_node)
      .Add("scales", scales_spec)
      .Add("schedulers", sched_spec);

  std::printf("%-10s %9s %9s %12s %9s %12s %12s\n", "scheduler", "workers",
              "jobs", "events", "wall_s", "events/sec", "tasks/sec");
  for (const std::size_t scale : scales) {
    bench::BenchOptions so = o;
    so.nodes = scale;
    so.jobs = jobs_per_node * scale;
    const auto trace = bench::MakeTrace("google", so);
    const auto cl = bench::MakeCluster(so.nodes, so.seed);
    for (const auto& sched : schedulers) {
      // A single-cell run writes its observability files untagged.
      const bool one_cell = scales.size() * schedulers.size() == 1;
      const auto rr = bench::Run(
          sched, trace, cl, so,
          one_cell ? "" : sched + "-" + std::to_string(scale));
      double wall = 0;
      std::uint64_t events = 0;
      std::size_t tasks = 0;
      double makespan = 0;
      for (const auto& r : rr.reports()) {
        wall += r.sim_wall_seconds;
        events += r.events_fired;
        tasks += r.CountTasks(metrics::ClassFilter::kAll,
                              metrics::ConstraintFilter::kAll);
        makespan += r.makespan;
      }
      const double events_per_sec = wall > 0 ? events / wall : 0;
      const double tasks_per_sec = wall > 0 ? tasks / wall : 0;
      std::printf("%-10s %9zu %9zu %12llu %9.3f %12.0f %12.0f\n",
                  sched.c_str(), scale, so.jobs,
                  static_cast<unsigned long long>(events), wall,
                  events_per_sec, tasks_per_sec);
      json.NewCell()
          .Add("scheduler", sched)
          .AddInt("workers", scale)
          .AddInt("jobs", so.jobs)
          .AddInt("events", events)
          .AddInt("tasks", tasks)
          .Add("wall_seconds", wall)
          .Add("events_per_sec", events_per_sec)
          .Add("tasks_per_sec", tasks_per_sec)
          .Add("sim_makespan", makespan / static_cast<double>(o.runs));
    }
  }
  std::printf("\nnote: wall-clock cells are machine-dependent; compare "
              "ratios on one host, not artifacts across hosts\n");
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}
