// Heartbeat fast paths: Phoenix's incremental E[W] republish and the
// draw-only steal sweep must leave exactly the state the full passes would.
//
// The republish is checked after every ideal-fabric Phoenix tick, in cells
// that exercise each way an estimator input or a congestion flag can move:
// plain load, power park/wake, failures with repair, four shards, a
// congested cell that reorders, and a partition window during which the
// fabric leaves its fast path.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/builder.h"
#include "cluster/membership.h"
#include "core/phoenix.h"
#include "federation/config.h"
#include "obs/audit.h"
#include "power/controller.h"
#include "power/manager.h"
#include "sched/hawk.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

using cluster::MachineId;

// After every tick taken on the ideal fabric, compares each worker of the
// tick's territory with what a full republish would have written.
class CheckedPhoenix : public core::PhoenixScheduler {
 public:
  using core::PhoenixScheduler::PhoenixScheduler;
  using sched::SchedulerBase::fabric;

  std::uint64_t ideal_ticks = 0;
  std::uint64_t lossy_ticks = 0;
  std::uint64_t congested_ticks = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;

 protected:
  void OnHeartbeat(MachineId lo, MachineId hi) override {
    const bool ideal = fabric().FastPath();
    core::PhoenixScheduler::OnHeartbeat(lo, hi);
    if (!ideal) {
      ++lossy_ticks;
      return;
    }
    ++ideal_ticks;
    if (CongestedFor(lo)) ++congested_ticks;
    for (MachineId i = lo; i < hi; ++i) {
      const sched::WorkerState& w = worker(i);
      const double estimate = w.estimator.EstimateWait();
      const bool marked =
          CongestedFor(i) && estimate > config().qwait_threshold;
      if (w.last_wait_estimate == estimate && w.crv_marked == marked) {
        continue;
      }
      if (mismatches++ == 0) {
        std::ostringstream os;
        os << "t=" << engine().Now() << " worker " << i
           << ": published E[W] " << w.last_wait_estimate << " mark "
           << w.crv_marked << ", estimator reads " << estimate << " mark "
           << marked;
        first_mismatch = os.str();
      }
    }
  }
};

struct Cell {
  std::size_t machines = 40;
  std::size_t jobs = 800;
  double load = 0.6;
  std::uint64_t seed = 7;
  sched::SchedulerConfig config;
  std::size_t shards = 1;
  bool power = false;
  /// Machines [0, partition) are cut off for partition_s seconds from t=30.
  std::size_t partition = 0;
  double partition_s = 0;
};

struct Outcome {
  std::uint64_t ideal_ticks = 0;
  std::uint64_t lossy_ticks = 0;
  std::uint64_t congested_ticks = 0;
  metrics::SchedulerCounters counters;
};

Outcome RunChecked(const Cell& c) {
  const auto cl =
      cluster::BuildCluster({.num_machines = c.machines, .seed = c.seed});
  const auto t =
      trace::GenerateGoogleTrace(c.jobs, c.machines, c.load, c.seed);
  sim::Engine engine;
  CheckedPhoenix sched(engine, cl, c.config);
  obs::InvariantAuditor auditor;
  sched.AttachAuditor(&auditor);
  std::unique_ptr<cluster::MembershipView> view;
  std::unique_ptr<power::PowerManager> manager;
  std::unique_ptr<power::PowerController> controller;
  if (c.power) {
    view = std::make_unique<cluster::MembershipView>(cl, cl.size());
    sched.SetMembership(view.get());
    power::PowerConfig pc;
    pc.enabled = true;
    pc.policy.park = true;
    manager = std::make_unique<power::PowerManager>(cl, pc);
    sched.SetPower(manager.get());
    controller = std::make_unique<power::PowerController>(
        engine, sched, *view, *manager, cl.size());
  }
  if (c.shards > 1) {
    federation::FederationConfig fed;
    fed.shards = c.shards;
    sched.EnableFederation(fed);
  }
  sched.SubmitTrace(t);
  if (controller) controller->Start();
  if (c.partition > 0) {
    engine.ScheduleAfter(30.0, [&sched, &c] {
      std::vector<MachineId> cut;
      for (MachineId m = 0; m < c.partition; ++m) cut.push_back(m);
      sched.fabric().Partition(cut, c.partition_s);
    });
  }
  engine.Run();
  sched.FinalAudit();
  EXPECT_TRUE(sched.AllJobsDone());
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(sched.mismatches, 0u) << sched.first_mismatch;
  return {sched.ideal_ticks, sched.lossy_ticks, sched.congested_ticks,
          sched.BuildReport().counters};
}

TEST(WaitRepublish, PlainCellMatchesFullRepublishEveryTick) {
  const Outcome o = RunChecked({});
  EXPECT_GT(o.ideal_ticks, 10u);
  // The saving is real: fewer reports than workers times ticks.
  EXPECT_LT(o.counters.wait_reports_applied, 40u * o.ideal_ticks);
}

TEST(WaitRepublish, PowerParkAndWakeCellMatches) {
  Cell c;
  c.load = 0.3;
  c.power = true;
  const Outcome o = RunChecked(c);
  EXPECT_GT(o.counters.power_parks, 0u);
  EXPECT_GT(o.counters.power_wakes, 0u);
}

TEST(WaitRepublish, FailureAndRepairCellMatches) {
  Cell c;
  c.config.machine_mtbf = 2000;
  c.config.machine_mttr = 200;
  const Outcome o = RunChecked(c);
  EXPECT_GT(o.counters.machine_failures, 0u);
}

TEST(WaitRepublish, FourShardIdealCellMatches) {
  Cell c;
  c.shards = 4;
  const Outcome o = RunChecked(c);
  EXPECT_GT(o.ideal_ticks, 40u);
  EXPECT_GT(o.counters.fed_gossip_applied, 0u);
}

TEST(WaitRepublish, CongestedReorderingCellMatches) {
  // PhoenixBehaviorTest's congested, constrained cell (core_test).
  Cell c;
  c.machines = 150;
  c.jobs = 7000;
  c.load = 0.85;
  c.seed = 4;
  const Outcome o = RunChecked(c);
  EXPECT_GT(o.congested_ticks, 0u);
  EXPECT_GT(o.counters.crv_reorder_rounds, 0u);
  EXPECT_GT(o.counters.tasks_reordered_crv, 0u);
}

TEST(WaitRepublish, PartitionWindowCellMatches) {
  // While the partition is active the fabric leaves its fast path: those
  // ticks ship an aggregate that lands later, and the first ideal tick
  // after the window must still publish every estimate exactly.
  Cell c;
  c.partition = 10;
  c.partition_s = 60;
  const Outcome o = RunChecked(c);
  EXPECT_GT(o.lossy_ticks, 0u);
  EXPECT_GT(o.ideal_ticks, 0u);
}

// ---------------------------------------------------------------- steal sweep

class OpenHawk : public sched::HawkScheduler {
 public:
  using sched::HawkScheduler::HawkScheduler;
  using sched::SchedulerBase::StealSweep;
  using sched::SchedulerBase::TryStealFor;
  using sched::SchedulerBase::counters_view;
  using sched::SchedulerBase::rng;
  using sched::SchedulerBase::worker;
};

// Two identical 24-worker schedulers with nothing queued anywhere; workers
// 1-4 are busy, mid-steal, failed and draining — none of them may draw.
struct SweepPair {
  explicit SweepPair(const cluster::Cluster& cl)
      : view_a(cl, 4), view_b(cl, 4),
        a(engine_a, cl, Config()), b(engine_b, cl, Config()) {
    Shape(a, view_a);
    Shape(b, view_b);
  }
  static sched::SchedulerConfig Config() {
    sched::SchedulerConfig cfg;
    cfg.seed = 5;
    return cfg;
  }
  // Machines from 4 up start parked; all of them join, and 4 drains.
  static void Shape(OpenHawk& s, cluster::MembershipView& view) {
    for (MachineId m = 4; m < view.size(); ++m) {
      view.SetState(m, cluster::MachineLifecycle::kProvisioning);
      view.SetState(m, cluster::MachineLifecycle::kActive);
    }
    view.SetState(4, cluster::MachineLifecycle::kDraining);
    s.SetMembership(&view);
    s.worker(1).busy = true;
    s.worker(2).steal_inflight = true;
    s.InjectFailure(3);
  }
  sim::Engine engine_a;
  sim::Engine engine_b;
  cluster::MembershipView view_a;
  cluster::MembershipView view_b;
  OpenHawk a;
  OpenHawk b;
};

TEST(StealSweep, NoQueuedProbeSweepDrawsLikeThePerThiefLoop) {
  const auto cl = cluster::BuildCluster({.num_machines = 24, .seed = 3});
  SweepPair pair(cl);
  util::Rng expected = pair.a.rng();
  pair.a.StealSweep(0, 24);
  for (MachineId i = 0; i < 24; ++i) {
    sched::WorkerState& w = pair.b.worker(i);
    if (!w.busy && w.queue.empty()) pair.b.TryStealFor(w);
  }
  // Twenty eligible thieves, steal_candidates victim draws each.
  for (int k = 0; k < 20 * 4; ++k) expected.NextBounded(24);
  const std::uint64_t swept = pair.a.rng().Next();
  EXPECT_EQ(swept, pair.b.rng().Next());
  EXPECT_EQ(swept, expected.Next());
  EXPECT_EQ(pair.a.counters_view().steal_sweeps_without_victims, 1u);
  EXPECT_EQ(pair.a.counters_view().tasks_stolen, 0u);
  EXPECT_EQ(pair.b.counters_view().tasks_stolen, 0u);
}

}  // namespace
}  // namespace phoenix
