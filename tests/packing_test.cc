// Packing subsystem tests: resource-vector arithmetic (fit epsilon, gang
// scaling, copy counting with zero-capacity dimensions), the pack score
// (no-fit sentinel, alignment preference, fragmentation penalty,
// determinism), hashed demand vectors (pure function of seed and job id,
// shape bounds, closed-form mean), attribute-derived machine capacities,
// the arena allocator's recycling, the auditor's packed-capacity and
// gang-atomicity rules against synthetic event streams (leaks, over-commit,
// open rounds), and end-to-end packed runs: audit-clean gang/malleable
// mixes, inert knobs while disabled, demand clamping when no machine could
// ever host a job, gang aborts under a chaotic fabric, malleable width
// floors, infeasible-gang degradation, and bit-identity across thread
// budgets. Registered under the "packing" and "concurrency" ctest labels
// (scripts/check.sh runs `ctest -L packing`; the TSan build runs
// `ctest -L concurrency`).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/builder.h"
#include "cluster/capacity.h"
#include "obs/audit.h"
#include "obs/event.h"
#include "packing/config.h"
#include "packing/demand.h"
#include "packing/policy.h"
#include "packing/vector.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "trace/generators.h"
#include "util/arena.h"

namespace phoenix {
namespace {

using packing::PackDim;
using packing::ResourceVector;

cluster::Cluster MakeUniverse(std::size_t n, std::uint64_t seed = 7) {
  return cluster::BuildCluster({.num_machines = n, .seed = seed});
}

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { runner::SetExperimentThreads(n); }
  ~ScopedThreads() { runner::SetExperimentThreads(0); }
};

ResourceVector Vec(double cores, double mem, double gpus) {
  ResourceVector v;
  v[PackDim::kCores] = cores;
  v[PackDim::kMemoryGb] = mem;
  v[PackDim::kGpus] = gpus;
  return v;
}

/// A packed trace: google profile with every multi-task job tagged gang or
/// malleable per the fractions.
trace::Trace PackedTrace(std::size_t jobs, std::size_t workers, double load,
                         std::uint64_t seed, double gang_frac,
                         double malleable_frac,
                         double malleable_min_frac = 0.25) {
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = jobs;
  gen.num_workers = workers;
  gen.target_load = load;
  gen.seed = seed;
  gen.gang_fraction = gang_frac;
  gen.malleable_fraction = malleable_frac;
  gen.malleable_min_frac = malleable_min_frac;
  return trace::GenerateTrace("packed", gen);
}

runner::RunOptions PackedOptions() {
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.packing.enabled = true;
  o.obs.audit = true;  // the runner aborts on any auditor violation
  return o;
}

// ---- ResourceVector arithmetic --------------------------------------------

TEST(ResourceVectorTest, FitsInIsComponentWiseWithEpsilon) {
  const auto avail = Vec(4, 16, 1);
  EXPECT_TRUE(Vec(4, 16, 1).FitsIn(avail));
  EXPECT_TRUE(Vec(2, 8, 0).FitsIn(avail));
  EXPECT_FALSE(Vec(5, 8, 0).FitsIn(avail));
  EXPECT_FALSE(Vec(2, 17, 0).FitsIn(avail));
  EXPECT_FALSE(Vec(2, 8, 2).FitsIn(avail));
  // The epsilon admits an exact refit after float drift, not a real excess.
  EXPECT_TRUE(Vec(4 + 1e-12, 16, 1).FitsIn(avail));
  EXPECT_FALSE(Vec(4 + 1e-6, 16, 1).FitsIn(avail));
}

TEST(ResourceVectorTest, AddSubScaledRoundTrips) {
  auto ledger = Vec(32, 128, 2);
  const auto demand = Vec(2, 7.5, 0);
  // A gang reservation claims k copies at once; releasing them all must
  // restore the ledger exactly (the auditor's conservation rule relies on
  // the same arithmetic).
  ledger.AddScaled(demand, -4);
  EXPECT_DOUBLE_EQ(ledger[PackDim::kCores], 24);
  EXPECT_DOUBLE_EQ(ledger[PackDim::kMemoryGb], 98);
  ledger.AddScaled(demand, 4);
  EXPECT_DOUBLE_EQ(ledger[PackDim::kCores], 32);
  EXPECT_DOUBLE_EQ(ledger[PackDim::kMemoryGb], 128);
  ledger.Sub(ledger);
  EXPECT_TRUE(ledger.IsZero());
}

TEST(ResourceVectorTest, CopiesOfCountsWholeCopies) {
  const auto cap = Vec(16, 64, 1);
  EXPECT_EQ(cap.CopiesOf(Vec(4, 8, 0)), 4u);   // cores bind first
  EXPECT_EQ(cap.CopiesOf(Vec(1, 24, 0)), 2u);  // memory binds first
  EXPECT_EQ(cap.CopiesOf(Vec(1, 1, 1)), 1u);   // the single GPU binds
  EXPECT_EQ(cap.CopiesOf(Vec(32, 1, 0)), 0u);  // too big in one dimension
}

TEST(ResourceVectorTest, ZeroCapacityDimensionAdmitsNothing) {
  // An older-generation machine has no GPUs: any GPU-demanding job counts
  // zero copies there, and dimensions the demand does not touch never
  // constrain the count.
  const auto no_gpu = Vec(16, 64, 0);
  EXPECT_EQ(no_gpu.CopiesOf(Vec(1, 4, 1)), 0u);
  EXPECT_EQ(no_gpu.CopiesOf(Vec(1, 4, 0)), 16u);
  EXPECT_FALSE(Vec(1, 4, 1).FitsIn(no_gpu));
}

// ---- PackScore ------------------------------------------------------------

TEST(PackScoreTest, NoFitOnAnyOverflowingDimension) {
  const packing::PackingConfig config;
  const auto cap = Vec(16, 64, 1);
  EXPECT_EQ(packing::PackScore(Vec(32, 8, 0), cap, cap, config),
            packing::kNoFit);
  EXPECT_EQ(packing::PackScore(Vec(1, 128, 0), cap, cap, config),
            packing::kNoFit);
  // Zero-capacity dimension: a GPU demand can never land on a GPU-less box.
  const auto no_gpu = Vec(16, 64, 0);
  EXPECT_EQ(packing::PackScore(Vec(1, 4, 1), no_gpu, no_gpu, config),
            packing::kNoFit);
  EXPECT_GT(packing::PackScore(Vec(1, 4, 0), no_gpu, no_gpu, config),
            packing::kNoFit);
}

TEST(PackScoreTest, PrefersAlignedResidual) {
  const packing::PackingConfig config;
  const auto cap = Vec(16, 64, 0);
  const auto demand = Vec(8, 8, 0);  // core-heavy
  // A core-rich residual points the same way as the demand; a memory-rich
  // one does not. DotProduct alignment must prefer the former.
  const double aligned =
      packing::PackScore(demand, Vec(14, 16, 0), cap, config);
  const double misaligned =
      packing::PackScore(demand, Vec(9, 60, 0), cap, config);
  EXPECT_GT(aligned, misaligned);
}

TEST(PackScoreTest, PenalizesStrandingADimension) {
  packing::PackingConfig flat;
  flat.frag_weight = 0.0;
  packing::PackingConfig weighted;
  weighted.frag_weight = 1.0;
  const auto cap = Vec(16, 64, 0);
  // Placing (8, 8) on residual (8, 40) exhausts cores while 32 GB stays
  // free: the post-placement residual fractions are (0, 0.5), so at
  // frag_weight 1 the penalty term must cost exactly that 0.5 imbalance.
  const auto demand = Vec(8, 8, 0);
  const auto residual = Vec(8, 40, 0);
  const double penalty = packing::PackScore(demand, residual, cap, flat) -
                         packing::PackScore(demand, residual, cap, weighted);
  EXPECT_DOUBLE_EQ(penalty, 0.5);
  // A placement that drains both dimensions to zero strands nothing.
  const double clean_penalty =
      packing::PackScore(Vec(8, 32, 0), Vec(8, 32, 0), cap, flat) -
      packing::PackScore(Vec(8, 32, 0), Vec(8, 32, 0), cap, weighted);
  EXPECT_DOUBLE_EQ(clean_penalty, 0.0);
}

TEST(PackScoreTest, PureFunctionOfInputs) {
  const packing::PackingConfig config;
  const auto cap = Vec(16, 64, 1);
  const auto residual = Vec(7, 21, 1);
  const auto demand = Vec(2, 6, 0);
  const double first = packing::PackScore(demand, residual, cap, config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(packing::PackScore(demand, residual, cap, config), first);
  }
}

// ---- Hashed demand vectors ------------------------------------------------

TEST(DemandTest, PureFunctionOfSeedAndJob) {
  const packing::PackingConfig config;
  for (std::uint32_t job = 0; job < 64; ++job) {
    const auto a = packing::DemandFor(42, job, config);
    const auto b = packing::DemandFor(42, job, config);
    for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
      EXPECT_EQ(a.dim(d), b.dim(d)) << "job " << job << " dim " << d;
    }
  }
  // A different seed reshuffles the population (not necessarily every job,
  // but certainly some).
  bool any_differ = false;
  for (std::uint32_t job = 0; job < 64 && !any_differ; ++job) {
    const auto a = packing::DemandFor(42, job, config);
    const auto b = packing::DemandFor(43, job, config);
    for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
      if (a.dim(d) != b.dim(d)) any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(DemandTest, ShapeFollowsConfigBounds) {
  packing::PackingConfig config;
  config.demand_core_buckets = 4;
  config.demand_mem_per_core_lo = 2.0;
  config.demand_mem_per_core_hi = 6.0;
  std::uint32_t gpu_jobs = 0;
  for (std::uint32_t job = 0; job < 2000; ++job) {
    const auto d = packing::DemandFor(7, job, config);
    const double cores = d[PackDim::kCores];
    // Cores are 2^k for k in [0, buckets).
    EXPECT_TRUE(cores == 1 || cores == 2 || cores == 4 || cores == 8)
        << cores;
    const double per_core = d[PackDim::kMemoryGb] / cores;
    EXPECT_GE(per_core, config.demand_mem_per_core_lo - 1e-9);
    EXPECT_LE(per_core, config.demand_mem_per_core_hi + 1e-9);
    const double gpus = d[PackDim::kGpus];
    EXPECT_TRUE(gpus == 0 || gpus == 1) << gpus;
    if (gpus == 1) ++gpu_jobs;
  }
  // GPU tagging tracks the configured fraction (8 % +- a loose band).
  EXPECT_GT(gpu_jobs, 2000 * 0.03);
  EXPECT_LT(gpu_jobs, 2000 * 0.16);
}

TEST(DemandTest, MeanDemandMatchesPopulationMean) {
  const packing::PackingConfig config;
  const auto closed_form = packing::MeanDemand(config);
  ResourceVector sum;
  const std::uint32_t n = 20000;
  for (std::uint32_t job = 0; job < n; ++job) {
    sum.Add(packing::DemandFor(11, job, config));
  }
  for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
    const double empirical = sum.dim(d) / n;
    EXPECT_NEAR(empirical, closed_form.dim(d), 0.05 * closed_form.dim(d))
        << packing::PackDimName(static_cast<PackDim>(d));
  }
}

// ---- Machine capacities ---------------------------------------------------

TEST(CapacityTest, DerivedFromAttributesWithGpuTier) {
  const auto cl = MakeUniverse(64, 13);
  std::size_t gpu_machines = 0;
  std::size_t no_gpu_machines = 0;
  for (cluster::MachineId id = 0; id < cl.size(); ++id) {
    const auto& m = cl.machine(id);
    const auto cap = cluster::CapacityOf(m);
    EXPECT_EQ(cap[PackDim::kCores],
              static_cast<double>(m.Get(cluster::Attr::kNumCores)));
    EXPECT_EQ(cap[PackDim::kMemoryGb],
              static_cast<double>(m.Get(cluster::Attr::kMinMemory)));
    const auto family = m.Get(cluster::Attr::kPlatformFamily);
    EXPECT_EQ(cap[PackDim::kGpus], family >= 2 ? family - 1 : 0);
    if (cap[PackDim::kGpus] > 0) {
      ++gpu_machines;
    } else {
      ++no_gpu_machines;
    }
  }
  // The fleet carries both tiers: GPUs are realistically scarce, and the
  // zero-capacity GPU dimension exists somewhere for the policy to respect.
  EXPECT_GT(gpu_machines, 0u);
  EXPECT_GT(no_gpu_machines, 0u);
  // Fleet folds agree with the per-machine function.
  const auto max = cluster::MaxCapacity(cl);
  const auto total = cluster::TotalCapacity(cl);
  for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
    EXPECT_GE(total.dim(d), max.dim(d));
    EXPECT_GT(max.dim(d), 0.0);
  }
}

// ---- Arena ----------------------------------------------------------------

TEST(ArenaTest, RecyclesFreedBlocksBySizeClass) {
  util::Arena arena(1 << 12);
  void* a = arena.Allocate(48, 8);
  ASSERT_NE(a, nullptr);
  arena.Deallocate(a, 48, 8);
  // Same size class comes back off the free list: identical pointer, no new
  // chunk reserved.
  const std::size_t reserved = arena.bytes_reserved();
  void* b = arena.Allocate(48, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, FootprintBoundedByLiveSetNotChurn) {
  util::Arena arena(1 << 14);
  // A million alloc/free cycles of one block must not grow the arena past
  // its first chunk — the exact churn profile of worker queue nodes.
  void* p = arena.Allocate(64, 8);
  arena.Deallocate(p, 64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  for (int i = 0; i < 1000000; ++i) {
    void* q = arena.Allocate(64, 8);
    arena.Deallocate(q, 64, 8);
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, AllocatorWorksInStdContainers) {
  util::Arena arena;
  using Alloc = util::ArenaAllocator<int>;
  std::vector<int, Alloc> v{Alloc(&arena)};
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 10000u);
  EXPECT_EQ(v[9999], 9999);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  // Null-arena allocator falls back to the global allocator.
  std::vector<int, Alloc> plain;
  plain.push_back(1);
  EXPECT_EQ(plain[0], 1);
}

// ---- Auditor packing rules against synthetic streams ----------------------

obs::Event PackEvent(obs::EventType type, std::uint32_t machine,
                     std::uint32_t dim, double value, double time = 1.0) {
  obs::Event e;
  e.time = time;
  e.type = type;
  e.machine = machine;
  e.task = dim;
  e.value = value;
  return e;
}

TEST(PackAuditTest, BalancedClaimsAreClean) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PackEvent(obs::EventType::kPackCapacity, 0, 0, 16.0, 0.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackClaim, 0, 0, 4.0, 1.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackClaim, 0, 0, 8.0, 2.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackRelease, 0, 0, 8.0, 3.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackRelease, 0, 0, 4.0, 4.0));
  audit.Finish();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
  EXPECT_EQ(audit.pack_claims_seen(), 2u);
}

TEST(PackAuditTest, CatchesCapacityLeak) {
  // A claim never released — the synthetic version of a lost reservation or
  // a run that finished without returning its vector.
  obs::InvariantAuditor audit;
  audit.OnEvent(PackEvent(obs::EventType::kPackCapacity, 3, 1, 64.0, 0.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackClaim, 3, 1, 8.0, 1.0));
  audit.Finish();
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.pack_claims_seen(), 1u);
}

TEST(PackAuditTest, CatchesOverCommit) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PackEvent(obs::EventType::kPackCapacity, 0, 0, 8.0, 0.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackClaim, 0, 0, 6.0, 1.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackClaim, 0, 0, 6.0, 2.0));
  EXPECT_FALSE(audit.ok());
}

TEST(PackAuditTest, CatchesReleaseWithoutClaim) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PackEvent(obs::EventType::kPackCapacity, 0, 2, 2.0, 0.0));
  audit.OnEvent(PackEvent(obs::EventType::kPackRelease, 0, 2, 1.0, 1.0));
  EXPECT_FALSE(audit.ok());
}

TEST(GangAuditTest, ReserveCommitRoundIsClean) {
  obs::InvariantAuditor audit;
  obs::Event reserve;
  reserve.type = obs::EventType::kGangReserve;
  reserve.job = 5;
  reserve.machine = 1;
  reserve.task = 2;  // member count on this machine
  reserve.value = 30.0;
  audit.OnEvent(reserve);
  reserve.machine = 2;
  audit.OnEvent(reserve);  // same round, second machine
  obs::Event commit;
  commit.type = obs::EventType::kGangCommit;
  commit.job = 5;
  commit.value = 1.5;
  audit.OnEvent(commit);
  audit.Finish();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
  EXPECT_EQ(audit.gang_rounds_opened(), 1u);
  EXPECT_EQ(audit.gang_rounds_closed(), 1u);
}

TEST(GangAuditTest, CatchesRoundLeftOpenAtEnd) {
  obs::InvariantAuditor audit;
  obs::Event reserve;
  reserve.type = obs::EventType::kGangReserve;
  reserve.job = 9;
  reserve.machine = 0;
  reserve.task = 1;
  audit.OnEvent(reserve);
  audit.Finish();
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.gang_rounds_opened(), 1u);
  EXPECT_EQ(audit.gang_rounds_closed(), 0u);
}

TEST(GangAuditTest, CatchesCommitWithoutReserve) {
  obs::InvariantAuditor audit;
  obs::Event commit;
  commit.type = obs::EventType::kGangCommit;
  commit.job = 1;
  audit.OnEvent(commit);
  EXPECT_FALSE(audit.ok());
}

// ---- End-to-end packed runs -----------------------------------------------

TEST(PackedRun, AuditCleanWithGangsAndMalleables) {
  const auto cl = MakeUniverse(32, 17);
  const auto t = PackedTrace(400, 32, 0.5, 17, 0.15, 0.15);
  auto o = PackedOptions();
  const runner::RepeatedRuns runs(t, cl, o, 2);
  for (const auto& r : runs.reports()) {
    EXPECT_EQ(r.jobs.size(), t.size());
    EXPECT_TRUE(r.packing_enabled);
    EXPECT_GT(r.counters.packed_tasks, 0u);
    EXPECT_GT(r.packing_efficiency, 0.0);
    EXPECT_LE(r.packing_efficiency, 1.0 + 1e-9);
    EXPECT_GT(r.counters.gangs_placed, 0u);
    EXPECT_GT(r.counters.gang_commits, 0u);
    EXPECT_GT(r.counters.malleable_jobs, 0u);
  }
}

TEST(PackedRun, DisabledKnobsAreInert) {
  // Turning every packing knob without the master switch must not move a
  // single scheduling decision — the layering contract each optional
  // subsystem honors.
  const auto cl = MakeUniverse(24, 19);
  const auto t = PackedTrace(300, 24, 0.6, 19, /*gang=*/0, /*malleable=*/0);
  runner::RunOptions off;
  off.scheduler = "phoenix";
  runner::RunOptions knobs = off;
  knobs.config.packing.frag_weight = 9.0;
  knobs.config.packing.gang_hold = 1.0;
  knobs.config.packing.demand_core_buckets = 2;
  knobs.config.packing.gpu_job_fraction = 0.5;
  ASSERT_FALSE(knobs.config.packing.enabled);
  const auto r_off = runner::RunSimulation(t, cl, off);
  const auto r_knobs = runner::RunSimulation(t, cl, knobs);
  EXPECT_EQ(r_off.makespan, r_knobs.makespan);
  EXPECT_EQ(r_off.counters.probes_sent, r_knobs.counters.probes_sent);
  EXPECT_EQ(r_off.Utilization(), r_knobs.Utilization());
  EXPECT_FALSE(r_knobs.packing_enabled);
  EXPECT_EQ(r_knobs.counters.packed_tasks, 0u);
  const auto p_off = r_off.QueuingSummary(metrics::ClassFilter::kShort,
                                          metrics::ConstraintFilter::kAll);
  const auto p_knobs = r_knobs.QueuingSummary(metrics::ClassFilter::kShort,
                                              metrics::ConstraintFilter::kAll);
  EXPECT_EQ(p_off.p99, p_knobs.p99);
}

TEST(PackedRun, OversizedDemandIsClampedToHostable) {
  // Demands shaped far past any machine's memory: every such job must be
  // clamped to its best satisfying machine (not rejected forever), the run
  // must drain, and the ledger must still balance (audit on).
  const auto cl = MakeUniverse(16, 23);
  const auto t = PackedTrace(200, 16, 0.4, 23, 0, 0);
  auto o = PackedOptions();
  o.config.packing.demand_mem_per_core_lo = 512.0;
  o.config.packing.demand_mem_per_core_hi = 1024.0;
  const auto r = runner::RunSimulation(t, cl, o);
  EXPECT_EQ(r.jobs.size(), t.size());
  EXPECT_GT(r.counters.pack_demand_clamped, 0u);
  EXPECT_GT(r.counters.packed_tasks, 0u);
}

TEST(PackedRun, GangAbortsUnderChaoticFabricAndStaysAuditClean) {
  // A lossy, reordering fabric against a tight reservation hold: member
  // binds that retry past the hold fail their round (abort, release, retry
  // with backoff), yet clean rounds keep committing and the capacity ledger
  // balances to zero — the auditor aborts the run otherwise.
  const auto cl = MakeUniverse(32, 29);
  const auto t = PackedTrace(300, 32, 0.4, 29, /*gang=*/0.5, 0);
  auto o = PackedOptions();
  o.config.packing.gang_hold = 0.02;
  o.config.net.drop_rate = 0.25;
  o.config.net.reorder_rate = 0.10;
  const auto r = runner::RunSimulation(t, cl, o);
  EXPECT_EQ(r.jobs.size(), t.size());
  EXPECT_GT(r.counters.gangs_placed, 0u);
  EXPECT_GT(r.counters.gang_aborts, 0u);
  EXPECT_GT(r.counters.gang_commits, 0u);
  EXPECT_GT(r.counters.gang_retry_waits, 0u);
}

TEST(PackedRun, MalleableWidthRespectsMinimumParallelism) {
  const auto cl = MakeUniverse(24, 31);
  // Floor at the full width: every supply-driven shrink attempt must clamp
  // at min_parallel and count a floor hit instead of shrinking below it.
  const auto t_floor = PackedTrace(300, 24, 0.8, 31, 0, /*malleable=*/0.5,
                                   /*min_frac=*/1.0);
  auto o = PackedOptions();
  const auto r_floor = runner::RunSimulation(t_floor, cl, o);
  EXPECT_GT(r_floor.counters.malleable_jobs, 0u);
  EXPECT_GT(r_floor.counters.malleable_min_hits, 0u);
  EXPECT_EQ(r_floor.counters.malleable_shrinks, 0u);
  // A loose floor under the same pressure lets widths actually move.
  const auto t_loose = PackedTrace(300, 24, 0.8, 31, 0, 0.5, 0.25);
  const auto r_loose = runner::RunSimulation(t_loose, cl, o);
  EXPECT_GT(r_loose.counters.malleable_shrinks +
                r_loose.counters.malleable_expands,
            0u);
}

TEST(PackedRun, InfeasibleGangDegradesInsteadOfSpinning) {
  // A fleet of 4 machines cannot co-host the google profile's larger gangs
  // even when empty: the liveness gate must degrade them to non-atomic
  // placement (and the run must terminate — the pre-gate scheduler retried
  // such gangs forever).
  const auto cl = MakeUniverse(4, 37);
  const auto t = PackedTrace(120, 4, 0.3, 37, /*gang=*/1.0, 0);
  auto o = PackedOptions();
  const auto r = runner::RunSimulation(t, cl, o);
  EXPECT_EQ(r.jobs.size(), t.size());
  EXPECT_GT(r.counters.gangs_degraded, 0u);
}

TEST(PackedRun, RefitRedispatchClosesTheReplacedProbe) {
  // bench_ext_packing's default cells (--runs=1), audited. When capacity
  // moves while a probe's fetch transits, the probe is re-sent elsewhere;
  // the stream must close the replaced probe (a bounce) or the auditor's
  // per-job probe balance leaks (eagle-c, mixed: job 2701 sent 11 probes
  // against 10 closes).
  const auto cl = MakeUniverse(96, 42);
  for (const std::string sched : {"phoenix", "eagle-c"}) {
    for (const auto& [gang, malleable] :
         {std::pair{0.0, 0.0}, {0.15, 0.0}, {0.0, 0.15}, {0.15, 0.15}}) {
      SCOPED_TRACE(sched + " gang=" + std::to_string(gang) +
                   " malleable=" + std::to_string(malleable));
      auto gen = trace::ProfileByName("google");
      gen.num_jobs = 4800;
      gen.num_workers = 96;
      gen.target_load = 0.85;
      gen.seed = 42;
      gen.gang_fraction = gang;
      gen.malleable_fraction = malleable;
      gen.malleable_min_frac = packing::PackingConfig{}.malleable_min_frac;
      const auto t = trace::GenerateTrace("google", gen);
      auto o = PackedOptions();
      o.scheduler = sched;
      o.config.seed = 42;
      o.config.packing.gang_fraction = gang;
      o.config.packing.malleable_fraction = malleable;
      const auto r = runner::RunSimulation(t, cl, o);  // aborts on a leak
      EXPECT_EQ(r.jobs.size(), t.size());
    }
  }
}

TEST(PackedRun, BitIdenticalAcrossThreadCounts) {
  const auto cl = MakeUniverse(32, 41);
  const auto t = PackedTrace(300, 32, 0.5, 41, 0.15, 0.15);
  auto o = PackedOptions();
  auto summarize = [&](std::size_t threads) {
    ScopedThreads guard(threads);
    const runner::RepeatedRuns runs(t, cl, o, 3);
    std::vector<double> values;
    for (const auto& r : runs.reports()) {
      values.push_back(r.makespan);
      values.push_back(r.packing_efficiency);
      values.push_back(r.fragmentation_time_avg);
      values.push_back(r.gang_wait_mean);
      values.push_back(static_cast<double>(r.counters.packed_tasks));
      values.push_back(static_cast<double>(r.counters.gang_commits));
      values.push_back(static_cast<double>(r.counters.gang_aborts));
      values.push_back(static_cast<double>(r.counters.malleable_expands));
      values.push_back(static_cast<double>(r.counters.malleable_shrinks));
      values.push_back(r.QueuingSummary(metrics::ClassFilter::kShort,
                                        metrics::ConstraintFilter::kAll)
                           .p99);
    }
    return values;
  };
  const auto serial = summarize(1);
  const auto parallel = summarize(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "summary value " << i;
  }
}

}  // namespace
}  // namespace phoenix
