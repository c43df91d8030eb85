// SchedulerCounters tests, table-driven over the PHOENIX_SCHEDULER_COUNTERS
// list: every counter the list declares is summed by AggregateCounters and
// reported identically by SnapshotCounters and BuildReport.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/builder.h"
#include "core/phoenix.h"
#include "federation/config.h"
#include "metrics/report.h"
#include "net/fabric.h"
#include "runner/experiment.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

#define PHOENIX_COUNT_COUNTER(type, name) +1
constexpr std::size_t kNumCounters =
    0 PHOENIX_SCHEDULER_COUNTERS(PHOENIX_COUNT_COUNTER);
#undef PHOENIX_COUNT_COUNTER

// Every counter is 8 bytes wide, so a member declared outside the list
// would show up as extra size.
static_assert(sizeof(metrics::SchedulerCounters) == 8 * kNumCounters,
              "SchedulerCounters has a member outside the X-macro list");

TEST(SchedulerCounters, AggregateSumsEveryField) {
  // Distinct values per field and per report: a field summed into the wrong
  // slot, summed twice or skipped reads a different total.
  std::vector<metrics::SimReport> reports(2);
  std::size_t i = 0;
#define PHOENIX_FILL_COUNTER(type, name)                   \
  ++i;                                                     \
  reports[0].counters.name = static_cast<type>(i);         \
  reports[1].counters.name = static_cast<type>(1000 * i);
  PHOENIX_SCHEDULER_COUNTERS(PHOENIX_FILL_COUNTER)
#undef PHOENIX_FILL_COUNTER
  ASSERT_EQ(i, kNumCounters);

  const metrics::SchedulerCounters sum = runner::AggregateCounters(reports);
  i = 0;
#define PHOENIX_EXPECT_SUM(type, name) \
  ++i;                                 \
  EXPECT_EQ(sum.name, static_cast<type>(1001 * i)) << #name;
  PHOENIX_SCHEDULER_COUNTERS(PHOENIX_EXPECT_SUM)
#undef PHOENIX_EXPECT_SUM
}

TEST(SchedulerCounters, SnapshotMatchesReportOnLossyShardedRun) {
  const auto cl = cluster::BuildCluster({.num_machines = 32, .seed = 7});
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = 320;
  gen.num_workers = 32;
  gen.target_load = 0.6;
  gen.seed = 7;
  const auto t = trace::GenerateTrace("google", gen);

  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.seed = 23;
  cfg.net.model = net::LatencyModel::kLognormal;
  cfg.net.drop_rate = 0.03;
  cfg.rpc.max_retries = 4;
  core::PhoenixScheduler sched(engine, cl, cfg);
  federation::FederationConfig fed;
  fed.shards = 4;
  sched.EnableFederation(fed);
  sched.SubmitTrace(t);
  engine.Run();
  ASSERT_TRUE(sched.AllJobsDone());

  const metrics::SchedulerCounters snap = sched.SnapshotCounters();
  const metrics::SchedulerCounters report = sched.BuildReport().counters;
#define PHOENIX_EXPECT_SAME(type, name) \
  EXPECT_EQ(snap.name, report.name) << #name;
  PHOENIX_SCHEDULER_COUNTERS(PHOENIX_EXPECT_SAME)
#undef PHOENIX_EXPECT_SAME
  // The fabric, RPC and federation folds all engaged.
  EXPECT_GT(snap.net_messages_dropped, 0u);
  EXPECT_GT(snap.rpc_retries, 0u);
  EXPECT_GT(snap.fed_gossip_applied, 0u);
}

}  // namespace
}  // namespace phoenix
