// Figure 9: breakdown of benefits — queuing delay of short jobs (p90/p99)
// for both constrained and unconstrained slices, Phoenix vs Eagle-C on the
// Google trace. The paper's point: CRV reordering helps BOTH slices, since
// stalled constrained jobs also block the unconstrained tasks queued behind
// them.
#include <cstdio>

#include "bench/common.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 2);
  bench::PrintHeader("Figure 9: queuing delay breakdown (Google)", o, "Fig 9");

  const auto trace = bench::MakeTrace("google", o);
  const auto cluster = bench::MakeCluster(o.nodes, o.seed);
  const auto phoenix_runs = bench::Run("phoenix", trace, cluster, o, "phoenix");
  const auto eagle_runs = bench::Run("eagle-c", trace, cluster, o, "eagle-c");

  util::TextTable table(
      {"slice", "pct", "Phoenix", "Eagle-C", "Eagle-C / Phoenix"});
  for (const auto& [label, kf] :
       std::vector<std::pair<std::string, metrics::ConstraintFilter>>{
           {"constrained", metrics::ConstraintFilter::kConstrained},
           {"unconstrained", metrics::ConstraintFilter::kUnconstrained}}) {
    for (const double p : {90.0, 99.0}) {
      const double ph = phoenix_runs.MeanQueuingPercentile(
          p, metrics::ClassFilter::kShort, kf);
      const double ea = eagle_runs.MeanQueuingPercentile(
          p, metrics::ClassFilter::kShort, kf);
      table.AddRow({label, util::StrFormat("p%.0f", p),
                    util::HumanDuration(ph), util::HumanDuration(ea),
                    util::StrFormat("%.2fx", ph > 0 ? ea / ph : 0.0)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper shape: Phoenix improves the p99 queuing delay of BOTH "
              "constrained and unconstrained short jobs\n");
  return 0;
}
