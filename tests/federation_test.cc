// Sharded control plane tests (ctest -L federation): the ShardMap fleet
// partition, the FederationPlane's gossip ordering / staleness / global-view
// semantics, the auditor's federated bind and gossip-monotonicity rules,
// and end-to-end audited multi-shard runs — including fabric partitions on
// the gossip endpoints and bit-identical fingerprints across the experiment
// thread budget.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/builder.h"
#include "core/phoenix.h"
#include "federation/plane.h"
#include "federation/shard_map.h"
#include "net/fabric.h"
#include "obs/audit.h"
#include "obs/event.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

using federation::FederationConfig;
using federation::FederationPlane;
using federation::kNoShard;
using federation::ShardMap;

cluster::Cluster MakeFleet(std::size_t n, std::uint64_t seed = 7) {
  return cluster::BuildCluster({.num_machines = n, .seed = seed});
}

trace::Trace MakeTrace(std::size_t jobs, std::size_t workers,
                       std::uint64_t seed = 7) {
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = jobs;
  gen.num_workers = workers;
  gen.target_load = 0.6;
  gen.seed = seed;
  return trace::GenerateTrace("google", gen);
}

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { runner::SetExperimentThreads(n); }
  ~ScopedThreads() { runner::SetExperimentThreads(0); }
};

// ---- ShardMap -------------------------------------------------------------

TEST(ShardMap, RangesPartitionTheFleet) {
  const ShardMap map(10, 3);
  EXPECT_EQ(map.num_shards(), 3u);
  cluster::MachineId next = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const auto [lo, hi] = map.range(s);
    EXPECT_EQ(lo, next);  // contiguous, no gaps, no overlap
    EXPECT_LT(lo, hi);
    EXPECT_EQ(map.endpoint(s), lo);
    next = hi;
  }
  EXPECT_EQ(next, 10u);  // covers the whole fleet
  for (cluster::MachineId m = 0; m < 10; ++m) {
    const std::uint32_t s = map.shard_of(m);
    const auto [lo, hi] = map.range(s);
    EXPECT_GE(m, lo);
    EXPECT_LT(m, hi);
  }
  EXPECT_EQ(map.max_span(), 4u);  // ceil(10/3): the per-tick scan bound
}

TEST(ShardMap, SingleShardOwnsEverything) {
  const ShardMap map(7, 1);
  EXPECT_EQ(map.range(0).first, 0u);
  EXPECT_EQ(map.range(0).second, 7u);
  EXPECT_EQ(map.max_span(), 7u);
  for (cluster::MachineId m = 0; m < 7; ++m) {
    EXPECT_EQ(map.shard_of(m), 0u);
  }
}

// ---- FederationPlane ------------------------------------------------------

FederationConfig TwoShards(double period = 1.0, double stale = 5.0) {
  FederationConfig cfg;
  cfg.shards = 2;
  cfg.gossip_period = period;
  cfg.staleness_bound = stale;
  return cfg;
}

TEST(FederationPlane, DuplicatedGossipIsDroppedByVersionOrdering) {
  net::FabricConfig net;
  net.duplicate_rate = 0.9;  // most digests arrive (at least) twice
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net, 17);
  FederationPlane plane(engine, fabric, TwoShards(), 4);
  plane.RefreshLocal(0, 1.0, 2, 1);
  plane.RefreshLocal(1, 2.0, 2, 1);
  plane.Start([&engine] { return engine.Now() < 4.5; });
  engine.Run();
  const auto& s = plane.stats();
  EXPECT_GT(s.digests_published, 0u);
  EXPECT_GT(s.digests_applied, 0u);
  // The duplicate copy carries the same version: strictly-newer-only apply
  // must drop it instead of rolling state forward twice.
  EXPECT_GT(s.digests_stale_dropped, 0u);
  EXPECT_EQ(s.digests_applied + s.digests_stale_dropped,
            fabric.stats().delivered);
}

TEST(FederationPlane, StalePeersDropOutOfGlobalViews) {
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 19);
  FederationPlane plane(engine, fabric, TwoShards(1.0, 2.0), 4);
  plane.RefreshLocal(0, 1.0, 2, 0);  // stamp t=0
  plane.RefreshLocal(1, 4.0, 6, 3);
  plane.OnQueuedDelta(1, 0, 0.25, +1);
  plane.OnQueuedDelta(1, 0, 0.25, +1);
  // One gossip round (shard 0 publishes at t=1.0, shard 1 at t=1.5), then
  // the chains stop so the origin stamps age past the 2 s bound.
  plane.Start([&engine] { return engine.Now() < 1.8; });
  engine.ScheduleAfter(1.9, [&] {
    ASSERT_TRUE(plane.Fresh(0, 1));  // origin stamp 0, age 1.9 <= 2
    // Live-worker weighting: (1.0*2 + 4.0*6) / 8.
    EXPECT_DOUBLE_EQ(plane.GlobalMeanWait(0), 3.25);
    std::array<std::uint64_t, cluster::kNumCrvDims> demand{};
    const auto load = plane.GlobalCrvLoad(0, &demand);
    EXPECT_DOUBLE_EQ(load[0], 0.5);  // peer's gossiped CRV load
    EXPECT_EQ(demand[0], 2u);
  });
  engine.ScheduleAfter(3.1, [&] {
    EXPECT_FALSE(plane.Fresh(0, 1));  // age 3.1 > 2: unknown, not wrong
    EXPECT_DOUBLE_EQ(plane.GlobalMeanWait(0), 1.0);  // own territory only
    const auto load = plane.GlobalCrvLoad(0, nullptr);
    EXPECT_DOUBLE_EQ(load[0], 0.0);
  });
  engine.Run();
}

TEST(FederationPlane, OnQueuedDeltaClampsLoadAndSaturatesDemand) {
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 23);
  FederationPlane plane(engine, fabric, TwoShards(), 4);
  plane.OnQueuedDelta(0, 2, 0.5, +1);
  plane.OnQueuedDelta(0, 2, 0.5, -1);
  plane.OnQueuedDelta(0, 2, 0.5, -1);  // over-release must not go negative
  EXPECT_DOUBLE_EQ(plane.Local(0).crv_load[2], 0.0);
  EXPECT_EQ(plane.Local(0).crv_demand[2], 0u);
}

TEST(FederationPlane, PickOffloadPeerPrefersFreshLowWaitPeers) {
  FederationConfig cfg;
  cfg.shards = 3;
  cfg.gossip_period = 1.0;
  cfg.staleness_bound = 5.0;
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 29);
  FederationPlane plane(engine, fabric, cfg, 6);
  // Before any gossip: no peer views exist, and the silence is not counted
  // as a staleness block (there is nothing to be stale).
  EXPECT_EQ(plane.PickOffloadPeer(0), kNoShard);
  EXPECT_EQ(plane.stats().offloads_blocked_stale, 0u);
  plane.RefreshLocal(0, 10.0, 2, 0);  // saturated home shard
  plane.RefreshLocal(1, 1.0, 2, 2);
  plane.RefreshLocal(2, 0.5, 2, 1);
  plane.Start([&engine] { return engine.Now() < 1.9; });
  engine.ScheduleAfter(2.5, [&] {
    // Both peers fresh with free slots: lowest gossiped wait wins.
    EXPECT_EQ(plane.PickOffloadPeer(0), 2u);
    // A shard with its own free slots never offloads.
    EXPECT_EQ(plane.PickOffloadPeer(1), kNoShard);
  });
  engine.Run();
}

TEST(FederationPlane, PickOffloadPeerHysteresisAndStaleBlock) {
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 31);
  FederationPlane plane(engine, fabric, TwoShards(1.0, 2.0), 4);
  plane.RefreshLocal(0, 1.0, 2, 0);
  plane.RefreshLocal(1, 0.9, 2, 3);  // busy-ish: inside the hysteresis band
  plane.Start([&engine] { return engine.Now() < 1.8; });
  engine.ScheduleAfter(1.9, [&] {
    // 0.9 >= offload_factor (0.8) * 1.0: not enough of a win to offload.
    EXPECT_EQ(plane.PickOffloadPeer(0), kNoShard);
    EXPECT_EQ(plane.stats().offloads_blocked_stale, 0u);
  });
  engine.ScheduleAfter(3.5, [&] {
    // The only candidate's view has aged out: blocked on staleness, and the
    // block is counted (this is the "degrade, don't guess" path).
    EXPECT_EQ(plane.PickOffloadPeer(0), kNoShard);
    EXPECT_EQ(plane.stats().offloads_blocked_stale, 1u);
  });
  engine.Run();
}

// ---- Auditor rules --------------------------------------------------------

obs::Event Ev(obs::EventType type, std::uint32_t job, std::uint32_t machine,
              std::uint32_t task, double value = 0, double time = 1.0) {
  obs::Event e;
  e.time = time;
  e.type = type;
  e.job = job;
  e.machine = machine;
  e.task = task;
  e.value = value;
  return e;
}

TEST(Auditor, FedBindSendAcceptPairIsClean) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  auditor.OnEvent(Ev(obs::EventType::kFedBindAccept, 1, 5, 0));
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.fed_binds_sent(), 1u);
  EXPECT_EQ(auditor.fed_binds_closed(), 1u);
}

TEST(Auditor, FedBindCloseWithoutSendIsViolation) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindReject, 1, 5, 0));
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, FedBindLeftOpenIsViolationAtFinish) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  EXPECT_TRUE(auditor.ok());  // still in flight: legal mid-run
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, FedBindDoubleSendBeforeCloseIsViolation) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 6, 0));
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, FedBindAcceptOnDrainingMachineIsViolation) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kMachineDrain, obs::kNoId, 5, obs::kNoId));
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  auditor.OnEvent(Ev(obs::EventType::kFedBindAccept, 1, 5, 0));
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, GossipApplyVersionsMustStrictlyIncrease) {
  obs::InvariantAuditor auditor;
  // machine = receiver shard, task = origin shard, value = version.
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 0, 1, 3.0));
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 0, 1, 4.0));
  // Distinct (receiver, origin) pairs are independent streams.
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 1, 0, 2.0));
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.gossip_applies(), 3u);
  // Replaying version 4 on (0, 1) means a stale digest was applied.
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 0, 1, 4.0));
  EXPECT_FALSE(auditor.ok());
}

// ---- End-to-end -----------------------------------------------------------

TEST(Federation, SingleShardConfigNeverBuildsThePlane) {
  const auto cl = MakeFleet(8);
  sim::Engine engine;
  core::PhoenixScheduler sched(engine, cl, sched::SchedulerConfig{});
  FederationConfig cfg;  // shards = 1
  sched.EnableFederation(cfg);
  EXPECT_EQ(sched.federation(), nullptr);
}

TEST(Federation, TwoShardAuditedRunGossipsAndStaysClean) {
  const auto cl = MakeFleet(30);
  const auto t = MakeTrace(300, 30);
  runner::RunOptions ro;
  ro.scheduler = "phoenix";
  ro.config.seed = 13;
  ro.obs.audit = true;  // RunSimulation aborts on any auditor violation
  ro.federation.shards = 2;
  ro.federation.gossip_period = 3.0;
  ro.federation.staleness_bound = 30.0;
  const auto report = runner::RunSimulation(t, cl, ro);
  EXPECT_GT(report.counters.fed_gossip_published, 0u);
  EXPECT_GT(report.counters.fed_gossip_applied, 0u);
  EXPECT_GT(report.counters.heartbeats, 0u);
  report.CheckInvariants();
}

// Exposes the protected fabric so the test can cut links mid-run, and the
// worker states so it can watch their published E[W] estimates.
class OpenPhoenix : public core::PhoenixScheduler {
 public:
  using core::PhoenixScheduler::PhoenixScheduler;
  using sched::SchedulerBase::fabric;
  using sched::SchedulerBase::worker;
};

TEST(Federation, PartitionedGossipEndpointsDegradeButStayClean) {
  const auto cl = MakeFleet(24);
  const auto t = MakeTrace(240, 24);
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.seed = 17;
  OpenPhoenix sched(engine, cl, cfg);
  obs::InvariantAuditor auditor;
  sched.AttachAuditor(&auditor);
  FederationConfig fed;
  fed.shards = 2;
  fed.gossip_period = 2.0;
  fed.staleness_bound = 8.0;
  sched.EnableFederation(fed);
  sched.SubmitTrace(t);
  // Cut shard 1's gossip endpoint off mid-run: digests in both directions
  // die, views age past the staleness bound, and placement must fall back
  // to home territory — degraded, never incorrect.
  const cluster::MachineId ep1 = sched.federation()->shard_map().endpoint(1);
  engine.ScheduleAfter(20.0, [&sched, ep1] {
    sched.fabric().Partition({ep1}, 120.0);
  });
  engine.Run();
  sched.FinalAudit();
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_TRUE(sched.AllJobsDone());
  EXPECT_GT(sched.fabric().stats().partition_drops, 0u);
  EXPECT_GT(sched.federation()->stats().digests_published, 0u);
  sched.BuildReport().CheckInvariants();
}

// Counts the fabric's kMsgSend events of one message kind.
class SendCounter : public obs::EventSink {
 public:
  explicit SendCounter(net::MessageKind kind) : kind_(kind) {}
  void OnEvent(const obs::Event& event) override {
    if (event.type == obs::EventType::kMsgSend &&
        event.task == static_cast<std::uint32_t>(kind_)) {
      ++sends;
    }
  }
  std::uint64_t sends = 0;

 private:
  net::MessageKind kind_;
};

sched::SchedulerConfig LognormalConfig(double drop_rate) {
  sched::SchedulerConfig cfg;
  cfg.seed = 19;
  cfg.net.model = net::LatencyModel::kLognormal;
  cfg.net.drop_rate = drop_rate;
  return cfg;
}

TEST(Federation, LossyPhoenixSendsOneHeartbeatReportPerShardTick) {
  // Each shard tick ships its territory's E[W] estimates as one aggregate
  // datagram, never one per worker.
  const auto cl = MakeFleet(40);
  const auto t = MakeTrace(400, 40);
  sim::Engine engine;
  OpenPhoenix sched(engine, cl, LognormalConfig(0.01));
  SendCounter reports(net::MessageKind::kHeartbeatReport);
  sched.AttachSink(&reports);
  FederationConfig fed;
  fed.shards = 4;
  sched.EnableFederation(fed);
  sched.SubmitTrace(t);
  engine.Run();
  EXPECT_TRUE(sched.AllJobsDone());
  const auto report = sched.BuildReport();
  EXPECT_GT(report.counters.heartbeats, 4u);
  EXPECT_EQ(reports.sends, report.counters.heartbeats);
}

// Runs a two-shard lossless lognormal fleet (shard 1 owns [12, 24)) to
// t=20, overwrites every published E[W] estimate with -1 (no report can
// carry a negative wait), cuts `severed` off for the shard tick at t=27,
// and returns the estimates just after that tick's aggregates land.
struct CutTick {
  std::vector<double> estimates;
  std::uint64_t partition_drops = 0;  // by the time the aggregates land
};

CutTick EstimatesAfterCutTick(const std::vector<cluster::MachineId>& severed) {
  const auto cl = MakeFleet(24);
  const auto t = MakeTrace(480, 24);
  sim::Engine engine;
  OpenPhoenix sched(engine, cl, LognormalConfig(0.0));
  FederationConfig fed;
  fed.shards = 2;
  sched.EnableFederation(fed);
  sched.SubmitTrace(t);
  engine.ScheduleAfter(20.0, [&sched, &severed] {
    for (cluster::MachineId m = 0; m < 24; ++m) {
      sched.worker(m).last_wait_estimate = -1;
    }
    sched.fabric().Partition(severed, 10.0);
  });
  engine.Run(28.0);
  EXPECT_FALSE(sched.AllJobsDone()) << "the run must outlast the cut tick";
  CutTick cut;
  for (cluster::MachineId m = 0; m < 24; ++m) {
    cut.estimates.push_back(sched.worker(m).last_wait_estimate);
  }
  cut.partition_drops = sched.fabric().stats().partition_drops;
  engine.Run();
  EXPECT_TRUE(sched.AllJobsDone());
  return cut;
}

TEST(Federation, SeveredWorkerKeepsItsStaleEstimateWhileMatesUpdate) {
  // Worker 15 (shard 1, not its endpoint) is cut off from the controller:
  // its estimate stays out of the aggregate, the rest of the fleet updates.
  const auto estimates = EstimatesAfterCutTick({15}).estimates;
  for (cluster::MachineId m = 0; m < 24; ++m) {
    if (m == 15) {
      EXPECT_EQ(estimates[m], -1) << "severed worker " << m;
    } else {
      EXPECT_GE(estimates[m], 0) << "worker " << m;
    }
  }
}

TEST(Federation, SeveredEndpointLeavesItsWholeTerritoryStale) {
  // Shard 1's endpoint (machine 12) is cut off: the fabric drops the
  // territory's aggregate, so all of [12, 24) keeps its stale estimate for
  // the tick while shard 0's territory updates.
  ASSERT_EQ(ShardMap(24, 2).endpoint(1), 12u);
  const auto cut = EstimatesAfterCutTick({12});
  EXPECT_GT(cut.partition_drops, 0u);
  for (cluster::MachineId m = 0; m < 24; ++m) {
    if (m >= 12) {
      EXPECT_EQ(cut.estimates[m], -1) << "shard 1 worker " << m;
    } else {
      EXPECT_GE(cut.estimates[m], 0) << "shard 0 worker " << m;
    }
  }
}

// Full-precision digest: two digests match iff the runs were bit-identical.
void Append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

std::string Fingerprint(const metrics::SimReport& r) {
  std::string out;
  Append(out, "events=%llu busy=%.17g makespan=%.17g\n",
         static_cast<unsigned long long>(r.events_fired), r.total_busy_time,
         r.makespan);
  Append(out, "gossip=%llu/%llu/%llu offloads=%llu binds=%llu/%llu/%llu\n",
         static_cast<unsigned long long>(r.counters.fed_gossip_published),
         static_cast<unsigned long long>(r.counters.fed_gossip_applied),
         static_cast<unsigned long long>(r.counters.fed_gossip_stale_dropped),
         static_cast<unsigned long long>(r.counters.fed_offloads),
         static_cast<unsigned long long>(r.counters.fed_bind_attempts),
         static_cast<unsigned long long>(r.counters.fed_bind_accepts),
         static_cast<unsigned long long>(r.counters.fed_bind_rejects));
  for (const auto& j : r.jobs) {
    Append(out, "j%llu s=%.17g c=%.17g q=%.17g\n",
           static_cast<unsigned long long>(j.id), j.submit, j.completion,
           j.queuing_delay);
  }
  return out;
}

TEST(Federation, FingerprintIsIdenticalAcrossThreadBudgets) {
  const auto cl = MakeFleet(24);
  const auto t = MakeTrace(240, 24);
  runner::RunOptions ro;
  ro.scheduler = "phoenix";
  ro.config.seed = 19;
  // Chaos on: gossip digests ride the lossy fabric, so this also checks the
  // per-message RNG keeps the multi-shard stream thread-deterministic.
  ro.config.net.model = net::LatencyModel::kLognormal;
  ro.config.net.drop_rate = 0.03;
  ro.config.net.reorder_rate = 0.05;
  ro.federation.shards = 3;
  ro.federation.gossip_period = 2.0;
  ro.federation.staleness_bound = 10.0;
  std::vector<std::string> serial;
  {
    ScopedThreads threads(1);
    const runner::RepeatedRuns runs(t, cl, ro, 3);
    for (const auto& r : runs.reports()) serial.push_back(Fingerprint(r));
  }
  {
    ScopedThreads threads(4);
    const runner::RepeatedRuns runs(t, cl, ro, 3);
    ASSERT_EQ(runs.reports().size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(Fingerprint(runs.reports()[i]), serial[i]) << "run " << i;
    }
  }
}

}  // namespace
}  // namespace phoenix
