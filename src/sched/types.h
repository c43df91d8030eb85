// Shared runtime types of the scheduler framework.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/constraint.h"
#include "cluster/machine.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "packing/config.h"
#include "packing/vector.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "queueing/mg1.h"
#include "sim/simtime.h"
#include "tenancy/config.h"
#include "trace/job.h"
#include "workflow/config.h"

namespace phoenix::sched {

/// Tunables shared by every scheduler. Defaults follow the paper's stated
/// choices (§V-A, §VI-C): probe ratio 2, 0.5 ms one-way transit, 9 s
/// heartbeat, starvation/slack threshold 5.
struct SchedulerConfig {
  /// Control-plane delivery model. Every probe delivery, late-binding task
  /// fetch, steal, migration, and heartbeat report transits the
  /// NetworkFabric; `net.one_way` (paper: 0.5 ms) is the single transit-time
  /// parameter — no scheduler carries its own delay constant.
  net::FabricConfig net;
  /// Timeout/retry/backoff policy for messages that must not strand work.
  net::RpcConfig rpc;

  /// Probes sent per short task (paper finds 2 optimal).
  std::size_t probe_ratio = 2;

  /// CRV monitor / node manager synchronization period (paper: 9 s).
  double heartbeat_interval = 9.0;

  /// Jobs whose estimated mean task duration is <= this are "short" and go
  /// through the distributed plane. Set from the trace by the runner.
  double short_cutoff = 90.0;

  /// Workers an idle node contacts per steal attempt (Hawk/Eagle).
  std::size_t steal_candidates = 4;

  /// Fraction of the cluster Hawk reserves for short jobs only.
  double hawk_short_partition = 0.09;

  /// Max times a queued entry may be bypassed by reordering (paper: 5).
  std::size_t slack_threshold = 5;

  /// CRV demand/supply ratio above which a dimension counts as congested
  /// and Phoenix switches that queue from SRPT to CRV reordering.
  double crv_threshold = 1.0;

  /// Estimated queue wait (seconds) marking a worker for CRV reordering.
  double qwait_threshold = 10.0;

  /// Service-time multiplier applied per relaxed soft constraint — the
  /// "performance trade-off" of §III-A's negotiation. The ablation bench
  /// shows tail gains are insensitive in 1.05-1.25 while median cost grows
  /// with the penalty; 1.1 models a modest placement-quality loss.
  double soft_relax_penalty = 1.1;

  /// Candidate count for power-of-d least-loaded placement in the
  /// centralized (long-job) plane.
  std::size_t power_of_d = 8;

  /// Samples kept by each worker's P-K wait estimator.
  std::size_t estimator_window = 64;

  std::uint64_t seed = 1;

  // Phoenix feature toggles (for the ablation benches; all on by default).
  /// CRV-based reordering of congested marked queues (Algorithm 1).
  bool phoenix_crv_reorder = true;
  /// Proactive soft-constraint negotiation at admission.
  bool phoenix_admission = true;
  /// E[W]-guided probe target selection.
  bool phoenix_wait_aware_probes = true;
  /// Suspension of sticky batch probing during congested periods. Off by
  /// default: ablation (bench_ablation_design_choices) shows stickiness
  /// remains beneficial under this simulator's congestion model, so Phoenix
  /// keeps SBP and relies on the CRV table for wait estimation instead.
  bool phoenix_suspend_sbp = false;

  /// Cap on proactively negotiated (soft) constraints per job. The paper
  /// negotiates "in which all the constraints could not be satisfied"; one
  /// relaxation per job keeps the placement-quality trade bounded.
  std::size_t phoenix_max_relaxations = 1;

  /// Multi-tenant scheduling (src/tenancy): tenant specs, preemption policy
  /// and quota window. Empty tenant list = disabled, byte-identical to a
  /// tenancy-free run.
  tenancy::TenancyConfig tenancy;

  /// Multi-resource vector packing, gang tasks, and malleable jobs
  /// (src/packing). Disabled = the paper's single-slot worker model,
  /// byte-identical to a packing-free run.
  packing::PackingConfig packing;

  /// DAG workloads and deadline/SLA scheduling (src/workflow). Both gates
  /// off = byte-identical to a workflow-free run.
  workflow::WorkflowConfig workflow;

  // Failure injection (0 disables). Machines fail with exponential
  // inter-failure times of mean machine_mtbf seconds; a failed machine's
  // queue is re-dispatched, its running task is replayed elsewhere, and the
  // machine returns after an exponential repair of mean machine_mttr.
  double machine_mtbf = 0.0;
  double machine_mttr = 600.0;
};

/// An entry in a worker queue: either a late-binding proxy probe for a short
/// job, or a task bound early by the centralized plane.
struct QueueEntry {
  enum class Kind : std::uint8_t { kProbe, kBoundTask };

  // Field order packs the struct to 40 bytes (doubles first, then 32-bit
  // ids, then the byte-wide tail) so lambdas capturing an entry by value
  // stay within the engine callback's inline buffer — queue hand-offs
  // (deliver, steal, re-dispatch) allocate nothing.

  /// Estimated task duration used by SRPT / load accounting (the job's mean
  /// task estimate, as production schedulers have from history).
  double est_duration = 0;
  sim::SimTime enqueue_time = 0;
  /// Seconds added to the task's next service (a preempted task pays the
  /// modeled restart cost on its re-run).
  double service_penalty = 0;
  trace::JobId job = trace::kInvalidJob;
  /// Valid for bound tasks only; probes late-bind to the job's next task.
  std::uint32_t task_index = 0;
  /// Times this entry has been bypassed by queue reordering.
  std::uint32_t bypass_count = 0;
  Kind kind = Kind::kProbe;
  /// The job is classified short by the scheduler.
  bool short_class = true;
  /// Times this bound task has already been preempted (feeds the
  /// max_preemptions_per_task immunity cap).
  std::uint8_t preempt_count = 0;
  /// Federation: bound optimistically into a peer shard's territory on a
  /// possibly-stale gossiped view. Delivery runs double-bind detection for
  /// such entries (accept only an actually-free slot, else requeue at
  /// home); cleared once resolved either way. Occupies the struct's last
  /// pad byte, keeping the 40-byte / inline-capture layout above intact.
  bool cross_shard = false;
};

/// Per-job replay list, pooled in the scheduler's arena (hot-path churn on
/// failure/preemption replays; a null-arena allocator falls back to the
/// global heap for standalone construction in tests).
using ReplayList = std::vector<std::uint32_t,
                               util::ArenaAllocator<std::uint32_t>>;

/// Runtime bookkeeping for a job being scheduled.
struct JobRuntime {
  JobRuntime() = default;
  explicit JobRuntime(util::Arena* arena)
      : replay_tasks(util::ArenaAllocator<std::uint32_t>(arena)) {}

  const trace::Job* spec = nullptr;
  trace::JobId id = trace::kInvalidJob;
  /// Constraints after admission-control relaxation.
  cluster::ConstraintSet effective;
  /// True if the original request was constrained (for reporting).
  bool constrained = false;
  bool short_class = true;
  /// Service-time multiplier from relaxed soft constraints.
  double duration_multiplier = 1.0;
  std::uint32_t relaxed_constraints = 0;

  std::uint32_t next_unplaced = 0;  // tasks are handed out in index order
  std::uint32_t completed = 0;
  /// Live proxy probes for this job (sent minus resolved).
  std::uint32_t outstanding_probes = 0;
  /// Task indices killed by a machine failure, awaiting re-execution.
  ReplayList replay_tasks;

  /// Racks that already host (or are bound to host) a task of this job —
  /// the state behind the spread/colocate placement preferences.
  util::Bitset used_racks;
  cluster::RackId anchor_rack = cluster::kInvalidRack;

  trace::PlacementPref placement() const { return spec->placement; }

  // ---- Tenancy (defaults describe an untenanted job) ----------------------
  /// Tenant tag resolved against the run's registry (kNoTenant bypasses
  /// tenant admission, preemption eligibility, and accounting).
  tenancy::TenantId tenant = tenancy::kNoTenant;
  /// Effective priority class after tenant admission. Untenanted jobs run
  /// as batch: preemption-neutral (neither preempt nor get preempted).
  tenancy::PriorityClass priority = tenancy::PriorityClass::kBatch;
  /// Effective short-job SLO after admission (0 = not tracked).
  double slo_target = 0;
  bool slo_tracked = false;
  /// Machine-seconds committed against the tenant quota, released at
  /// completion.
  double quota_charge = 0;
  /// Times any task of this job was preempted.
  std::uint32_t preemptions = 0;

  double sum_task_wait = 0;
  double max_task_wait = 0;
  /// Task executions started (exceeds num_tasks when failures replay work).
  std::uint32_t task_starts = 0;
  sim::SimTime completion = 0;

  // ---- Packing (meaningful only when config.packing.enabled) --------------
  /// Per-job demand vector, hashed from (run seed, job id) at arrival and
  /// clamped to the fleet's max capacity (the reject-then-clamp path).
  packing::ResourceVector demand;
  /// Gang bookkeeping: consecutive placement retries (drives the capped
  /// exponential backoff) and the arrival time (gang wait = commit - arrival).
  std::uint32_t gang_retries = 0;
  sim::SimTime gang_arrival = 0;
  /// Malleable bookkeeping: current parallelism target and tasks placed but
  /// not yet completed. Width moves in [min_parallel, num_tasks] with the
  /// packed free-capacity signal; shrink is passive (never kills a run).
  std::uint32_t malleable_width = 0;
  std::uint32_t malleable_inflight = 0;

  // ---- Workflow (meaningful only when config.workflow gates are on) -------
  /// Absolute completion deadline (submit + multiplier x critical path) and
  /// the SLA class rank (0 prod / 1 batch / 2 best-effort) it was derived
  /// from. deadline_tracked is false when deadline scheduling is off.
  double deadline = 0;
  bool deadline_tracked = false;
  std::uint8_t sla_rank = 1;

  bool gang() const { return spec->gang; }
  bool malleable() const { return spec->malleable; }
  std::uint32_t min_parallel() const {
    return spec->min_parallel > 0 ? spec->min_parallel : 1;
  }

  std::size_t num_tasks() const { return spec->task_durations.size(); }
  bool AllPlaced() const {
    return next_unplaced >= num_tasks() && replay_tasks.empty();
  }
  bool Done() const { return completed >= num_tasks(); }
  /// Actual service time of a task, including any relaxation penalty.
  double ActualDuration(std::uint32_t index) const {
    return spec->task_durations[index] * duration_multiplier;
  }
};

/// One concurrently executing task on a multi-slot (packed) worker. The
/// single-slot model keeps its scalar running_* fields; under packing each
/// machine instead carries a run list bounded by its capacity vector.
struct PackedRun {
  trace::JobId job = trace::kInvalidJob;
  std::uint32_t task_index = 0;
  /// Ties the completion event to this run (run_list indices shift).
  std::uint32_t run_id = 0;
  /// The cancellable completion event for this run.
  std::uint64_t pending_event = 0;
  sim::SimTime start = 0;
  sim::SimTime until = 0;
};

/// Worker queue storage, pooled in the scheduler's arena (deque chunks are
/// the steady-state allocation churn of a run).
using EntryQueue = std::deque<QueueEntry, util::ArenaAllocator<QueueEntry>>;

/// Runtime state of one worker (single execution slot + queue, §V-A; under
/// packing the slot becomes a residual-capacity ledger plus a run list).
struct WorkerState {
  cluster::MachineId id = cluster::kInvalidMachine;
  // The heartbeat steal sweep tests these three flags (plus queue
  // emptiness) on every worker of the tick, so they share the record's
  // first cache line with the id instead of trailing the estimator.
  /// True while the slot is held: resolving a probe, fetching, or executing.
  bool busy = false;
  /// A steal request is in flight (prevents steal storms).
  bool steal_inflight = false;
  /// Failure injection: machine is currently down.
  bool failed = false;
  EntryQueue queue;

  trace::JobId running_job = trace::kInvalidJob;
  std::uint32_t running_index = 0;
  sim::SimTime busy_until = 0;

  /// Sum of est_duration of queued entries plus the running remainder —
  /// the load signal for least-loaded placement and rebalancing.
  double est_queued_work = 0;

  /// Count of long (centrally bound) entries queued or running; drives the
  /// Succinct State Sharing bit the distributed schedulers see.
  std::uint32_t long_entries = 0;

  /// Online P-K estimator (Algorithm 1's Estimate_Waiting_Time inputs).
  queueing::WorkerWaitEstimator estimator;

  /// Phoenix: E[W] snapshot taken at the last heartbeat.
  double last_wait_estimate = 0;
  /// Phoenix: marked for CRV-based reordering at the last heartbeat.
  bool crv_marked = false;

  /// Lifetime count of task executions started on this machine. The
  /// elasticity controller diffs it across a lease to detect warm-ups that
  /// never served anything (wasted-warm-up accounting).
  std::uint64_t tasks_started = 0;

  /// Tenancy: snapshot of the running entry's starvation/preemption state,
  /// taken when the entry was popped for execution. Read only while
  /// running_job is valid; zero-tenant runs never read them.
  bool running_bypass_exhausted = false;
  std::uint8_t running_preempt_count = 0;
  /// When the running task started (elapsed service lost on a preemption).
  sim::SimTime running_start = 0;

  /// The cancellable in-flight event while the slot is held for a running
  /// task's completion. Slot-holding fetches use pending_call instead.
  std::uint64_t pending_event = 0;
  /// The live fetch RPC holding the slot (probe resolution or sticky-batch
  /// fetch); 0 when the slot is idle or executing. A machine failure
  /// cancels this call the way it cancels pending_event.
  std::uint64_t pending_call = 0;
  /// Valid while the slot is held for a probe resolution (so a failure can
  /// re-dispatch the probe).
  bool resolving = false;
  QueueEntry resolving_entry;
  /// Valid while the slot is held for a sticky-batch fetch (so a failure
  /// can re-cover the fetched job instead of relying on leftover probes).
  trace::JobId fetching_job = trace::kInvalidJob;

  // ---- Packing (capacity == residual == zero when packing is off) ---------
  /// Static capacity vector derived from the machine's attributes.
  packing::ResourceVector capacity;
  /// Capacity not claimed by running tasks or gang reservations. The
  /// auditor's conservation rule re-integrates claim/release events against
  /// this ledger.
  packing::ResourceVector residual;
  /// Tasks executing concurrently on this machine.
  std::vector<PackedRun> run_list;
  /// Monotone run-id source for this machine's completion events.
  std::uint32_t next_run_id = 0;

  /// True when the machine holds any work: the single slot (busy covers
  /// running, probe-resolving, and fetching), queued entries, or — under
  /// packing — live packed runs. Park/retire/free-slot decisions use this;
  /// run_list is always empty when packing is off, so the predicate
  /// degenerates to the original busy-or-queued test.
  bool HoldsWork() const {
    return busy || !queue.empty() || !run_list.empty();
  }

  explicit WorkerState(std::size_t estimator_window,
                       util::Arena* arena = nullptr)
      : queue(util::ArenaAllocator<QueueEntry>(arena)),
        estimator(estimator_window) {}
};

}  // namespace phoenix::sched
