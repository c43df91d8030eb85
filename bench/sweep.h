// Shared node-count sweep for Figures 7, 8, 10 and 11.
//
// The paper sweeps the fleet from 15,000 to 19,000 workers against a fixed
// trace, so average utilization falls (86 % -> 43 %) and the normalized
// response-time ratio converges toward 1. We replay the same experiment:
// one trace calibrated to the base fleet, replayed on scaled fleets.
//
// The (treatment, baseline) x fleet-multiplier grid is embarrassingly
// parallel, so cells run concurrently under the --threads budget. Cells
// write into slots indexed by grid position, and the table/TSV are emitted
// only after the join, in grid order — printed output and TSV rows are
// byte-identical to a serial run (and rows can never interleave mid-line,
// which the old write-as-you-go loop would have allowed under concurrency).
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "metrics/percentile.h"

namespace phoenix::bench {

inline const std::vector<double>& SweepMultipliers() {
  static const std::vector<double> m = {1.0, 1.15, 1.35, 1.6, 2.0};
  return m;
}

/// Runs `treatment` and `baseline` over `profile`'s trace across the fleet
/// sweep and prints percentiles of `cf` jobs normalized to the baseline
/// (lower is better — the paper's bar height).
inline void RunNormalizedSweep(const std::string& profile,
                               const std::string& treatment,
                               const std::string& baseline,
                               metrics::ClassFilter cf,
                               const BenchOptions& o) {
  auto opts = o;
  if (profile == "yahoo") {
    opts.nodes = std::max<std::size_t>(o.nodes / 3, 8);
    opts.jobs = 50 * opts.nodes;
  }
  const auto trace = MakeTrace(profile, opts);
  std::printf("--- %s trace (base fleet %zu workers) ---\n", profile.c_str(),
              opts.nodes);

  // One cluster per multiplier, shared (const) by that multiplier's two
  // cells; one result slot per (multiplier, scheduler) cell.
  const auto& mults = SweepMultipliers();
  std::vector<std::size_t> fleet_sizes;
  std::vector<cluster::Cluster> clusters;
  fleet_sizes.reserve(mults.size());
  clusters.reserve(mults.size());
  for (const double mult : mults) {
    fleet_sizes.push_back(
        static_cast<std::size_t>(static_cast<double>(opts.nodes) * mult));
    clusters.push_back(MakeCluster(fleet_sizes.back(), opts.seed));
  }
  if (runner::ExperimentThreads() > 1) {
    for (const auto& cl : clusters) runner::PrewarmClusterForTrace(cl, trace);
  }
  std::vector<std::optional<runner::RepeatedRuns>> cells(2 * mults.size());
  runner::ParallelExperimentLoop(cells.size(), [&](std::size_t i) {
    const auto& scheduler = (i % 2 == 0) ? treatment : baseline;
    cells[i].emplace(Run(scheduler, trace, clusters[i / 2], opts,
                         util::StrFormat("%s-%s-x%g", profile.c_str(),
                                         scheduler.c_str(), mults[i / 2])));
  });

  // Join done: emit the table and TSV serially, in grid order.
  std::FILE* tsv = nullptr;
  if (!o.tsv.empty()) {
    tsv = std::fopen(o.tsv.c_str(), "a");
    if (tsv != nullptr) {
      // Emit the header only for a fresh file (ftell on an append stream is
      // unreliable before the first write; seek to the real end first).
      std::fseek(tsv, 0, SEEK_END);
      if (std::ftell(tsv) == 0) {
        std::fprintf(tsv,
                     "# series\tfleet\tutil\tp50_norm\tp90_norm\tp99_norm\t"
                     "p99_treatment_s\tp99_baseline_s\n");
      }
    }
  }
  util::TextTable table({"fleet", "~paper nodes", "avg util",
                         "p50 (norm)", "p90 (norm)", "p99 (norm)",
                         "p99 " + treatment, "p99 " + baseline});
  for (std::size_t m = 0; m < mults.size(); ++m) {
    const std::size_t nodes = fleet_sizes[m];
    const auto& t = *cells[2 * m];
    const auto& b = *cells[2 * m + 1];
    auto norm = [&](double p) {
      const double tv =
          t.MeanResponsePercentile(p, cf, metrics::ConstraintFilter::kAll);
      const double bv =
          b.MeanResponsePercentile(p, cf, metrics::ConstraintFilter::kAll);
      return bv > 0 ? tv / bv : 0.0;
    };
    const double util =
        (t.MeanUtilization() + b.MeanUtilization()) / 2;
    const double t99 =
        t.MeanResponsePercentile(99, cf, metrics::ConstraintFilter::kAll);
    const double b99 =
        b.MeanResponsePercentile(99, cf, metrics::ConstraintFilter::kAll);
    table.AddRow(
        {util::WithCommas(static_cast<std::int64_t>(nodes)),
         util::WithCommas(static_cast<std::int64_t>(15000 * mults[m])),
         util::StrFormat("%.0f%%", 100 * util),
         util::StrFormat("%.2f", norm(50)), util::StrFormat("%.2f", norm(90)),
         util::StrFormat("%.2f", norm(99)), util::HumanDuration(t99),
         util::HumanDuration(b99)});
    if (tsv != nullptr) {
      std::fprintf(tsv, "%s-%s-vs-%s\t%zu\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%.2f\n",
                   profile.c_str(), treatment.c_str(), baseline.c_str(), nodes,
                   util, norm(50), norm(90), norm(99), t99, b99);
    }
  }
  if (tsv != nullptr) std::fclose(tsv);
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace phoenix::bench
