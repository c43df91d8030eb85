// Simulation outcome report.
//
// Every experiment in the paper is a view over the same per-job outcomes:
// response time (completion - submit) and queuing delay (mean task wait),
// sliced by job class (short/long, per the scheduler's own classification)
// and constrainedness — plus scheduler-internal counters (Table III's
// reordering statistics) and measured cluster utilization.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/percentile.h"
#include "sim/simtime.h"
#include "trace/job.h"

namespace phoenix::metrics {

struct JobOutcome {
  trace::JobId id = trace::kInvalidJob;
  sim::SimTime submit = 0;
  sim::SimTime completion = 0;
  /// Mean over tasks of (execution start - job submit).
  double queuing_delay = 0;
  /// Max over tasks of (execution start - job submit) — the straggler wait.
  double max_task_wait = 0;
  std::size_t num_tasks = 0;
  bool short_class = true;   // the scheduler's classification
  bool constrained = false;
  /// Tenant tag (0xffff = untenanted) and effective priority class rank
  /// after admission (0 prod, 1 batch, 2 best-effort); raw integers so
  /// metrics does not depend on src/tenancy.
  std::uint16_t tenant = 0xffff;
  std::uint8_t priority = 1;
  /// Distinct racks that executed this job's tasks.
  std::size_t racks_used = 0;
  trace::PlacementPref placement = trace::PlacementPref::kNone;

  double response() const { return completion - submit; }
};

/// Job-slice selectors.
enum class ClassFilter { kAll, kShort, kLong };
enum class ConstraintFilter { kAll, kConstrained, kUnconstrained };

/// Scheduler-internal counters (Table III and overhead accounting), as one
/// X-macro list of (type, name): the struct below, runner::AggregateCounters
/// and the counter tests all expand it, so add a counter by adding one line
/// to the list.
#define PHOENIX_SCHEDULER_COUNTERS(X)                                        \
  X(std::uint64_t, probes_sent)                                              \
  X(std::uint64_t, probes_cancelled)                                         \
  X(std::uint64_t, tasks_reordered_crv)                                      \
  X(std::uint64_t, tasks_reordered_srpt)                                     \
  X(std::uint64_t, tasks_stolen)                                             \
  X(std::uint64_t, soft_constraints_relaxed)                                 \
  X(std::uint64_t, tasks_admission_rejected)                                 \
  X(std::uint64_t, heartbeats)                                               \
  X(std::uint64_t, crv_reorder_rounds)                                       \
  /* Heartbeat work: E[W] reports Phoenix applied at its CRV monitor (an     \
     ideal-fabric tick applies only workers whose estimator inputs moved),   \
     and steal sweeps that found no short probe queued anywhere and only     \
     replayed their RNG draws. */                                            \
  X(std::uint64_t, wait_reports_applied)                                     \
  X(std::uint64_t, steal_sweeps_without_victims)                             \
  /* Spread-preference jobs that had to double up on a rack. */              \
  X(std::uint64_t, placement_spread_violations)                              \
  /* Colocate-preference tasks that landed off the job's anchor rack. */     \
  X(std::uint64_t, placement_colocate_misses)                                \
  /* Probes declined at resolution to preserve a spread preference. */       \
  X(std::uint64_t, probes_declined_placement)                                \
  /* Machine failures injected and tasks rescheduled because of them. */     \
  X(std::uint64_t, machine_failures)                                         \
  X(std::uint64_t, tasks_rescheduled_failure)                                \
  /* Probes that lost their worker to a failure and were re-sent. */         \
  X(std::uint64_t, probes_bounced)                                           \
  /* Sticky-batch fetches interrupted by a failure and re-covered with a     \
     fresh dispatch (the guard against stranding the fetched job). */        \
  X(std::uint64_t, sticky_fetch_redispatches)                                \
  /* Centralized placements where every sampled candidate was down and the   \
     binding fell back to a fresh draw from the satisfying pool. */          \
  X(std::uint64_t, placement_dead_fallbacks)                                 \
  /* Control-plane fabric accounting (src/net). All zero under the default   \
     zero-chaos fabric, whose fast path does no per-message bookkeeping. */  \
  X(std::uint64_t, net_messages_sent)                                        \
  X(std::uint64_t, net_messages_dropped)                                     \
  X(std::uint64_t, net_messages_duplicated)                                  \
  X(std::uint64_t, net_messages_expired)                                     \
  X(std::uint64_t, rpc_retries)                                              \
  X(std::uint64_t, rpc_failures)                                             \
  /* Elastic cluster lifecycle (src/elastic). All zero on a static fleet. */ \
  X(std::uint64_t, elastic_provisions)                                       \
  X(std::uint64_t, elastic_commissions)                                      \
  X(std::uint64_t, elastic_drains)                                           \
  X(std::uint64_t, elastic_retires_graceful)                                 \
  X(std::uint64_t, elastic_retires_forced)                                   \
  /* Transient leases reclaimed by the stochastic reclamation stream. */     \
  X(std::uint64_t, elastic_reclamations)                                     \
  /* Queued/running work evicted by forced retires and redispatched. */      \
  X(std::uint64_t, elastic_tasks_redispatched)                               \
  /* Controller policy decisions (a decision may move several machines). */  \
  X(std::uint64_t, elastic_scale_up_decisions)                               \
  X(std::uint64_t, elastic_scale_down_decisions)                             \
  /* Scale-ups whose machine choice was steered by the CRV supply shaper. */ \
  X(std::uint64_t, elastic_crv_shaped_picks)                                 \
  /* Seconds spent warming machines up, and the subset wasted on leases      \
     that retired without ever starting a task. */                           \
  X(double, elastic_warmup_seconds)                                          \
  X(double, elastic_wasted_warmup_seconds)                                   \
  /* Multi-tenant scheduling (src/tenancy). All zero when no tenants are     \
     configured. */                                                          \
  X(std::uint64_t, tenant_admits)                                            \
  X(std::uint64_t, tenant_downgrades)                                        \
  X(std::uint64_t, tenant_rejects)                                           \
  X(std::uint64_t, tenant_slo_jobs)                                          \
  X(std::uint64_t, tenant_slo_attained)                                      \
  X(std::uint64_t, tenant_slo_at_risk)                                       \
  /* Queue picks where a higher class overrode the discipline's choice. */   \
  X(std::uint64_t, tenant_priority_promotions)                               \
  X(std::uint64_t, preemptions_issued)                                       \
  X(std::uint64_t, preemption_requeues)                                      \
  /* Preemptions refused because the victim was bypass-exhausted (the        \
     Slack_threshold starvation guard) or already at the preemption cap. */  \
  X(std::uint64_t, preemptions_blocked_guard)                                \
  X(std::uint64_t, preemptions_blocked_cap)                                  \
  /* Preemptions refused because the machine left the bindable fleet         \
     (draining/retired): its slot work belongs to the drain sweep alone. */  \
  X(std::uint64_t, preemptions_blocked_lifecycle)                            \
  /* Modeled restart cost paid by preempted tasks, and service seconds       \
     thrown away at their kills. */                                          \
  X(double, preemption_restart_seconds)                                      \
  X(double, preemption_lost_seconds)                                         \
  /* Sharded control plane (src/federation). All zero with --shards=1.       \
     Gossip digests sent / applied / discarded as out-of-order stale. */     \
  X(std::uint64_t, fed_gossip_published)                                     \
  X(std::uint64_t, fed_gossip_applied)                                       \
  X(std::uint64_t, fed_gossip_stale_dropped)                                 \
  /* Jobs steered off their home shard on a fresh peer view, and offload     \
     decisions blocked because every candidate peer view was stale. */       \
  X(std::uint64_t, fed_offloads)                                             \
  X(std::uint64_t, fed_offloads_blocked_stale)                               \
  /* Probes landing outside the job's home territory. */                     \
  X(std::uint64_t, fed_cross_shard_probes)                                   \
  /* Optimistic cross-shard binds: sent, accepted at a genuinely free slot,  \
     rejected by double-bind detection (requeued via redispatch). */         \
  X(std::uint64_t, fed_bind_attempts)                                        \
  X(std::uint64_t, fed_bind_accepts)                                         \
  X(std::uint64_t, fed_bind_rejects)                                         \
  /* Constrained placements whose satisfying pool missed the target          \
     territory and fell back to a global draw. */                            \
  X(std::uint64_t, fed_territory_fallbacks)                                  \
  /* Energy/power management (src/power). All zero without a power model. */ \
  X(std::uint64_t, power_parks)                                              \
  X(std::uint64_t, power_wakes)                                              \
  /* Wakes forced by a placement that found every satisfying machine         \
     asleep (the dispatch-time CRV demand signal; also counted in            \
     power_wakes). */                                                        \
  X(std::uint64_t, power_demand_wakes)                                       \
  /* DVFS steps: raises go toward P0 (faster/hungrier), lowers away. */      \
  X(std::uint64_t, power_dvfs_raises)                                        \
  X(std::uint64_t, power_dvfs_lowers)                                        \
  /* Parks the controller refused: coverage guard (the last awake machine    \
     satisfying a hot CRV predicate) and the min-active floor. */            \
  X(std::uint64_t, power_park_vetoes_coverage)                               \
  X(std::uint64_t, power_park_vetoes_floor)                                  \
  /* Controller ticks that issued at least one wake. */                      \
  X(std::uint64_t, power_wake_decisions)                                     \
  /* Drained machines the elastic controller parked instead of retiring. */  \
  X(std::uint64_t, power_parks_instead_of_retire)                            \
  /* Multi-resource packing (src/packing). All zero with --packing off.      \
     Task executions started against a residual-capacity ledger. */          \
  X(std::uint64_t, packed_tasks)                                             \
  /* Probe resolutions / deliveries refused because the demand no longer     \
     fit the residual vector (the probe re-routes, nothing strands). */      \
  X(std::uint64_t, pack_fit_rejections)                                      \
  /* Jobs whose hashed demand exceeded every machine's capacity and was      \
     clamped to the fleet max (the reject-then-renegotiate path). */         \
  X(std::uint64_t, pack_demand_clamped)                                      \
  /* Gang scheduling: placements attempted, reservation rounds committed /   \
     aborted, and attempts deferred for lack of free capacity. */            \
  X(std::uint64_t, gangs_placed)                                             \
  X(std::uint64_t, gang_commits)                                             \
  X(std::uint64_t, gang_aborts)                                              \
  X(std::uint64_t, gang_retry_waits)                                         \
  /* Gangs no empty eligible fleet could co-host, degraded to non-atomic     \
     placement (the liveness escape from the retry loop). */                 \
  X(std::uint64_t, gangs_degraded)                                           \
  /* Malleable jobs: arrivals, width expansions / shrinks, and ticks a       \
     job's width sat clamped at its minimum parallelism. */                  \
  X(std::uint64_t, malleable_jobs)                                           \
  X(std::uint64_t, malleable_expands)                                        \
  X(std::uint64_t, malleable_shrinks)                                        \
  X(std::uint64_t, malleable_min_hits)                                       \
  /* DAG workflows and deadline scheduling (src/workflow). All zero with     \
     --dag/--deadline off. dag_tasks_released counts kDagRelease events      \
     (ready tasks handed to the dispatch path); deadline_promotions counts   \
     queue picks where the EDF tie-break overrode the discipline's choice. */ \
  X(std::uint64_t, dag_jobs)                                                 \
  X(std::uint64_t, dag_tasks_released)                                       \
  X(std::uint64_t, deadline_jobs)                                            \
  X(std::uint64_t, deadline_misses)                                          \
  X(std::uint64_t, deadline_promotions)

struct SchedulerCounters {
#define PHOENIX_DECLARE_COUNTER(type, name) type name = 0;
  PHOENIX_SCHEDULER_COUNTERS(PHOENIX_DECLARE_COUNTER)
#undef PHOENIX_DECLARE_COUNTER
};

/// Per-tenant outcome slice (empty unless the run configured tenants).
/// Priority is the spec's class rank (0 prod / 1 batch / 2 best-effort).
struct TenantOutcome {
  std::uint16_t id = 0;
  std::string name;
  std::uint8_t priority = 1;
  double quota_share = 0;
  double slo_target = 0;
  std::uint64_t jobs = 0;
  std::uint64_t admits = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t rejects = 0;
  std::uint64_t slo_jobs = 0;
  std::uint64_t slo_attained = 0;
  std::uint64_t slo_at_risk = 0;
  std::uint64_t preemptions_issued = 0;
  std::uint64_t preemptions_suffered = 0;
  /// Executed machine-seconds and the peak committed/budget fraction.
  double usage_seconds = 0;
  double peak_quota_fraction = 0;
  /// Mean / p90 queuing delay over this tenant's jobs.
  double mean_queuing = 0;
  double p90_queuing = 0;

  double SloAttainment() const {
    return slo_jobs == 0 ? 1.0
                         : static_cast<double>(slo_attained) /
                               static_cast<double>(slo_jobs);
  }
};

class SimReport {
 public:
  std::string scheduler_name;
  std::string trace_name;
  std::size_t num_workers = 0;
  std::vector<JobOutcome> jobs;
  SchedulerCounters counters;
  /// Sum over workers of busy (executing) time, seconds.
  double total_busy_time = 0;
  /// Simulated time at which the last task finished.
  sim::SimTime makespan = 0;
  /// Integral of in-service (active + draining) machine count over the run,
  /// machine-seconds. Zero on a static fleet, where every worker is in
  /// service for the whole makespan.
  double active_machine_seconds = 0;
  /// Per-tenant slices and the Jain index over quota-normalized tenant
  /// usage (see TenantUsageJain). Empty / 1.0 without configured tenants.
  std::vector<TenantOutcome> tenants;
  double tenant_fairness_jain = 1.0;
  /// Host-side cost of the run, filled by the runner around engine.Run():
  /// wall-clock seconds spent draining the event queue and the engine's
  /// fired-event count. events_fired is deterministic for a fixed seed;
  /// sim_wall_seconds is a measurement artifact and must never leak into
  /// the byte-stable paper-figure outputs.
  double sim_wall_seconds = 0;
  std::uint64_t events_fired = 0;
  /// Energy accounting (src/power), filled only when a power model is
  /// attached; all zero (and power_enabled false) otherwise, so reports and
  /// JSON emitters can gate the energy fields on one flag.
  bool power_enabled = false;
  /// Fleet energy with every state dwell closed at the report horizon.
  double total_joules = 0;
  /// total_joules / completed tasks.
  double energy_per_task = 0;
  /// total_joules x mean job response time (the classic EDP, J*s).
  double energy_delay_product = 0;
  /// Integral of the number of machines in deep sleep, machine-seconds.
  double sleep_machine_seconds = 0;
  /// Per-SLA-class (priority rank 0 prod / 1 batch / 2 best-effort) energy
  /// attainment: execution joules attributed to each class's completed
  /// tasks and the class task counts. Filled when power and tenancy are
  /// both attached; all zero otherwise.
  std::array<double, 3> class_exec_joules{};
  std::array<std::uint64_t, 3> class_tasks{};
  /// Multi-resource packing (src/packing), filled when packing is enabled.
  bool packing_enabled = false;
  /// Demand-weighted core-seconds executed over fleet core capacity x
  /// makespan — the packed analogue of Utilization().
  double packing_efficiency = 0;
  /// Time-average over heartbeats of the free-core fraction stranded on
  /// machines that are partially busy (capacity neither used nor cleanly
  /// idle — the fragmentation cost of vector packing).
  double fragmentation_time_avg = 0;
  /// Mean seconds from a gang job's arrival to its reservation commit.
  double gang_wait_mean = 0;
  /// DAG workflows / deadline scheduling (src/workflow), filled when the
  /// corresponding gate is on; all zero (and the flags false) otherwise so
  /// emitters can gate the blocks on one boolean each. Deadline attainment
  /// is sliced by SLA class rank (0 prod / 1 batch / 2 best-effort):
  /// class_deadline_jobs counts completed deadline-tracked jobs per class,
  /// class_deadline_attained the subset that finished by their deadline.
  bool dag_enabled = false;
  bool deadline_enabled = false;
  std::array<std::uint64_t, 3> class_deadline_jobs{};
  std::array<std::uint64_t, 3> class_deadline_attained{};

  /// Fraction of deadline-tracked jobs of class `rank` that met their
  /// deadline (1.0 when the class saw no tracked jobs).
  double DeadlineAttainment(std::size_t rank) const {
    return class_deadline_jobs[rank] == 0
               ? 1.0
               : static_cast<double>(class_deadline_attained[rank]) /
                     static_cast<double>(class_deadline_jobs[rank]);
  }

  /// Simulated events retired per wall second (0 when not measured).
  double EventsPerSec() const {
    return sim_wall_seconds > 0
               ? static_cast<double>(events_fired) / sim_wall_seconds
               : 0.0;
  }

  /// Measured average utilization: busy time over delivered capacity —
  /// workers * makespan for a static fleet, the in-service integral when
  /// the fleet was elastic.
  double Utilization() const;

  /// Response times of jobs matching the filters.
  std::vector<double> ResponseTimes(ClassFilter cf,
                                    ConstraintFilter kf) const;
  /// Queuing delays of jobs matching the filters.
  std::vector<double> QueuingDelays(ClassFilter cf, ConstraintFilter kf) const;

  PercentileSummary ResponseSummary(ClassFilter cf, ConstraintFilter kf) const;
  PercentileSummary QueuingSummary(ClassFilter cf, ConstraintFilter kf) const;

  std::size_t CountJobs(ClassFilter cf, ConstraintFilter kf) const;
  std::size_t CountTasks(ClassFilter cf, ConstraintFilter kf) const;

  /// Structural sanity checks (completion >= submit, etc). Aborts on
  /// violation; called by the runner after each simulation.
  void CheckInvariants() const;
};

/// speedup = baseline / treatment for a given percentile of short-job
/// response times (how the paper reports "Phoenix improves by N x").
double SpeedupAtPercentile(const SimReport& treatment,
                           const SimReport& baseline, double percentile,
                           ClassFilter cf = ClassFilter::kShort,
                           ConstraintFilter kf = ConstraintFilter::kAll);

}  // namespace phoenix::metrics
