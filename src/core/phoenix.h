// Phoenix: the constraint-aware hybrid scheduler (the paper's contribution).
//
// Built on Eagle-C (hybrid planes, SSS, SRPT, sticky batch probing) and
// extended with (Table I last row):
//   * a CRV_Monitor that maintains per-dimension demand/supply ratios of
//     constrained queued work, refreshed into a lookup-table snapshot every
//     heartbeat (9 s);
//   * per-worker Pollaczek-Khinchine M/G/1 waiting-time estimates E[W]
//     (Equation 1), also refreshed at the heartbeat;
//   * adaptive queue reordering (Algorithm 1): while any CRV dimension is
//     congested (ratio > CRV_threshold), workers whose E[W] exceeds
//     Qwait_threshold reorder by CRV — tasks demanding the hottest
//     dimension run first (they have the fewest alternative workers),
//     SRPT among equals, bounded by the slack/starvation threshold;
//     otherwise plain SRPT, which is tail-optimal at moderate load;
//   * proactive admission control: soft constraints touching congested
//     dimensions are negotiated away at arrival for short jobs;
//   * wait-aware probe placement: probe targets are chosen from the
//     satisfying pool by lowest estimated E[W] rather than uniformly; and
//     sticky batch probing is suspended during congested periods, since
//     stickiness is a poor wait-time estimator under constraint surges
//     (paper §VI-A).
#pragma once

#include "core/admission.h"
#include "core/crv.h"
#include "sched/eagle.h"
#include "util/bitset.h"

namespace phoenix::core {

class PhoenixScheduler : public sched::EagleScheduler {
 public:
  PhoenixScheduler(sim::Engine& engine, const cluster::Cluster& cluster,
                   const sched::SchedulerConfig& config);

  std::string name() const override { return "phoenix"; }

  /// Forwards the view to the base placement paths, the CRV monitor
  /// (eligible-pool supply + per-predicate demand) and the admission
  /// controller (eligible-pool scarcity gates).
  void SetMembership(cluster::MembershipView* membership) override;

  /// Additionally forwards the parked-supply discount into the CRV monitor:
  /// parked satisfying machines count as wake-discounted supply in the
  /// snapshot ratios (wake-latency-aware CRV).
  void SetPower(power::PowerManager* power) override;

  /// Demand/supply per distinct queued predicate on the currently hottest
  /// CRV dimension — the elasticity controller's input for CRV-aware supply
  /// shaping. Empty without a membership view.
  std::vector<CrvMonitor::PredicateDemand> HotSupplyDemand() const {
    return monitor_.HotPredicates(snapshot_.max_dim);
  }

  /// Current CRV table contents (for tests and the examples).
  const CrvSnapshot& snapshot() const { return snapshot_; }
  bool congested() const { return congested_; }

  /// One CRV_Lookup_Table refresh, timestamped.
  struct CrvSample {
    double time = 0;
    CrvSnapshot snapshot;
    bool congested = false;
  };

  /// Heartbeat-by-heartbeat history of the CRV table (capped at
  /// kMaxHistory samples by uniform decimation) — the observability feed a
  /// production CRV_Monitor would export.
  const std::vector<CrvSample>& crv_history() const { return history_; }

 protected:
  void AdmitJob(sched::JobRuntime& job) override;
  std::vector<cluster::MachineId> ChooseProbeTargets(
      const sched::JobRuntime& job) override;
  std::size_t SelectNextIndex(const sched::WorkerState& worker) override;
  void OnHeartbeat(cluster::MachineId lo, cluster::MachineId hi) override;
  bool UseStickyBatchProbing(const sched::JobRuntime& job) const override;
  void OnEntryEnqueued(const sched::WorkerState& worker,
                       const sched::QueueEntry& entry) override;
  void OnEntryDequeued(const sched::WorkerState& worker,
                       const sched::QueueEntry& entry) override;

  /// The CRV table `wid`'s territory believes congested (the global flag
  /// unsharded, its shard's reconstructed belief under federation).
  bool CongestedFor(cluster::MachineId wid) const;

 private:
  /// True if the job's effective constraints touch the hottest dimension of
  /// `snap`.
  bool TouchesHotDim(const sched::JobRuntime& job,
                     const CrvSnapshot& snap) const;

  // ---- Federated CRV views ------------------------------------------------
  //
  // Under federation each shard keeps its own belief of the *global* CRV
  // table: its live territory counters plus fresh gossiped peer digests
  // (federation/plane.h). These accessors pick the right table — the
  // worker's owning shard for queue decisions, the job's home shard for
  // admission — and collapse to the single global snapshot_ when unsharded
  // (or before the first federated heartbeat).

  /// Refreshes shard's reconstructed global CRV table from the plane.
  void RefreshShardCrv(std::uint32_t shard);
  const CrvSnapshot& SnapshotFor(cluster::MachineId wid) const;
  const CrvSnapshot& JobSnapshot(const sched::JobRuntime& job) const;
  bool JobCongested(const sched::JobRuntime& job) const;
  /// Per-constraint CRV delta of a queue transition in `wid`'s territory,
  /// pushed into the shard's gossiped digest.
  void FederatedQueuedDelta(cluster::MachineId wid,
                            const cluster::ConstraintSet& cs, double sign);

  /// Lands one worker's heartbeat E[W] report at the CRV monitor: refreshes
  /// the published wait estimate and the CRV reorder mark. Under the ideal
  /// fabric this is applied synchronously at the tick; otherwise the tick's
  /// territory sends its reports as one aggregate over the fabric, so a
  /// drop/delay leaves the whole territory's estimates stale — the
  /// eventual-consistency failure mode the netplane bench studies.
  void ApplyWaitReport(sched::WorkerState& w, double estimate);

  /// The ideal-fabric republish of territory `territory` = [lo, hi) under
  /// congestion flag `cong`: applies every worker's report when the flag
  /// differs from the territory's last republish (every mark may move),
  /// otherwise only the workers whose estimator inputs changed — every
  /// other worker's last report is still exact. Clears their change bits.
  void RepublishWaitEstimates(std::uint32_t territory, cluster::MachineId lo,
                              cluster::MachineId hi, bool cong);

  static constexpr std::size_t kMaxHistory = 4096;

  CrvMonitor monitor_;
  AdmissionController admission_;
  CrvSnapshot snapshot_;
  bool congested_ = false;
  std::vector<CrvSample> history_;
  /// Federated per-shard beliefs (empty unsharded and until the first
  /// federated heartbeat sizes them).
  std::vector<CrvSnapshot> shard_snapshots_;
  std::vector<std::uint8_t> shard_congested_;
  /// Per worker, the CRV mark of its last applied report: a republish that
  /// skips unchanged workers reads "is any worker of the territory marked"
  /// here.
  util::Bitset reported_marks_;
  /// Per territory (one unsharded, one per shard), the congestion flag of
  /// its last ideal-fabric republish; sized at the first heartbeat. Zero
  /// initially, matching the unmarked workers.
  std::vector<std::uint8_t> republished_congested_;
};

}  // namespace phoenix::core
