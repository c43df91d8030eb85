// Figure 2: CDF of job queuing times for the Yahoo (2a) and Cloudera (2b)
// traces with task placement constraints, under Hawk-C, Eagle-C, Yacc-D and
// the unconstrained Baseline.
//
// Prints one CDF series per scheduler (quantile -> queuing delay), matching
// the figure's axes (x = job queuing time in seconds, y = CDF).
#include <cstdio>

#include "bench/common.h"
#include "metrics/percentile.h"

using namespace phoenix;

namespace {

void PrintTraceCdf(const std::string& profile, const bench::BenchOptions& o) {
  auto opts = o;
  if (profile == "yahoo") {
    opts.nodes = std::max<std::size_t>(o.nodes / 3, 8);
    opts.jobs = 50 * opts.nodes;
  }
  const auto constrained = bench::MakeTrace(profile, opts);
  const auto baseline = constrained.WithoutConstraints();
  const auto cluster = bench::MakeCluster(opts.nodes, opts.seed);

  std::printf("--- %s trace with constraints (%zu nodes) ---\n",
              profile.c_str(), opts.nodes);
  const double quantiles[] = {10, 25, 50, 75, 90, 95, 99};
  util::TextTable table({"CDF", "Hawk-C", "Eagle-C", "Yacc-D", "Baseline"});

  std::map<std::string, std::vector<double>> delays;
  for (const std::string sched : {"hawk-c", "eagle-c", "yacc-d"}) {
    const auto runs = bench::Run(sched, constrained, cluster, opts, sched);
    delays[sched] = runs.reports()[0].QueuingDelays(
        metrics::ClassFilter::kAll, metrics::ConstraintFilter::kAll);
  }
  {
    const auto runs =
        bench::Run("eagle-c", baseline, cluster, opts, "eagle-c-unconstrained");
    delays["baseline"] = runs.reports()[0].QueuingDelays(
        metrics::ClassFilter::kAll, metrics::ConstraintFilter::kAll);
  }
  for (const double q : quantiles) {
    table.AddRow(
        {util::StrFormat("%.2f", q / 100.0),
         util::StrFormat("%.1fs", metrics::Percentile(delays["hawk-c"], q)),
         util::StrFormat("%.1fs", metrics::Percentile(delays["eagle-c"], q)),
         util::StrFormat("%.1fs", metrics::Percentile(delays["yacc-d"], q)),
         util::StrFormat("%.1fs", metrics::Percentile(delays["baseline"], q))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 1);
  bench::PrintHeader("Figure 2: job queuing time CDFs", o,
                     "Fig 2a (Yahoo), Fig 2b (Cloudera)");
  PrintTraceCdf("yahoo", o);
  PrintTraceCdf("cloudera", o);
  std::printf("paper shape: Baseline (no constraints) queues least; Hawk-C "
              "queues most; Eagle-C and Yacc-D sit 2-2.5x above Baseline in "
              "the tail\n");
  return 0;
}
