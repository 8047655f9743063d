/**
 * @file
 * The two sweep workloads. pythia_1c runs single-core Pythia jobs on
 * the in-process ParallelRunner; tables_4c runs four-core table
 * prefetcher jobs through ShardCoordinator worker processes. A
 * simulation is one sweep job: the prefetched run plus its Runner
 * baseline.
 */
#include <algorithm>
#include <cmath>
#include <set>

#include "bench.hpp"
#include "common/hashing.hpp"
#include "harness/shard.hpp"
#include "harness/sweep.hpp"
#include "layers.hpp"
#include "sim/prefetcher_registry.hpp"
#include "workloads/suites.hpp"

namespace perfbench {

namespace harness = pythia::harness;

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t k)
{
    return pythia::mix64(seed * 0x9E3779B97F4A7C15ull + k + 1) | 1;
}

namespace {

/** Seeds per catalog workload in one pythia_1c pass. */
constexpr std::uint64_t kSeeds1c = 2;
/** Seeds per fig10 case in one tables_4c pass. */
constexpr std::uint64_t kSeeds4c = 4;

/** fig10's homogeneous picks (one per suite) and its heterogeneous
 *  mix. */
const std::vector<std::string> kFig10Homogeneous = {
    "459.GemsFDTD-765B", "482.sphinx3-417B",    "605.mcf_s-665B",
    "PARSEC-Canneal",    "Ligra-PageRank",      "Cloudsuite-Cassandra",
};
const std::vector<std::string> kFig10Mix = {
    "462.libquantum-1343B", "429.mcf-184B", "PARSEC-Canneal", "Ligra-CC"};
/** Rotated across jobs so that no two jobs share a baseline key. */
const std::vector<std::string> kTablePrefetchers = {"stride", "spp",
                                                    "bingo"};

struct SweepPlan
{
    std::vector<harness::ExperimentSpec> grid; ///< one pass
    bool sharded = false;
    std::size_t traced_jobs = 0; ///< the first n grid jobs are traced
};

SweepPlan
pythia1cPlan(std::uint64_t seed)
{
    SweepPlan plan;
    const auto& catalog = pythia::wl::allWorkloads();
    for (std::uint64_t s = 0; s < kSeeds1c; ++s)
        for (std::size_t i = 0; i < catalog.size(); ++i) {
            harness::ExperimentSpec spec;
            spec.workload = catalog[i].name;
            spec.prefetcher = "pythia";
            spec.warmup_instrs = 60'000;
            spec.sim_instrs = 150'000;
            spec.workload_seed = deriveSeed(seed, s * 1000 + i);
            plan.grid.push_back(spec);
        }
    plan.traced_jobs = catalog.size();
    return plan;
}

SweepPlan
tables4cPlan(std::uint64_t seed)
{
    SweepPlan plan;
    plan.sharded = true;
    const std::size_t cases = kFig10Homogeneous.size() + 1;
    for (std::uint64_t s = 0; s < kSeeds4c; ++s)
        for (std::size_t c = 0; c < cases; ++c) {
            harness::ExperimentSpec spec;
            if (c < kFig10Homogeneous.size())
                spec.workload = kFig10Homogeneous[c];
            else
                spec.mix = kFig10Mix;
            spec.num_cores = 4;
            spec.prefetcher =
                kTablePrefetchers[(c + s) % kTablePrefetchers.size()];
            spec.warmup_instrs = 30'000;
            spec.sim_instrs = 75'000;
            spec.workload_seed = deriveSeed(seed, s * 1000 + c);
            plan.grid.push_back(spec);
        }
    plan.traced_jobs = cases;
    return plan;
}

/** Resolve every spec of the grid the way a sweep would, failing fast
 *  on a bad one: workloads and prefetchers are constructed once. */
void
resolveGrid(const SweepPlan& plan)
{
    for (const auto& spec : plan.grid) {
        auto workloads = harness::workloadsFor(spec);
        for (std::uint32_t c = 0; c < spec.num_cores; ++c)
            if (!pythia::sim::makePrefetcher(spec.prefetcher))
                throw std::invalid_argument("no prefetcher for " +
                                            spec.prefetcher);
    }
}

/** One pass of a sweep plus its accounting. */
struct PassResult
{
    std::vector<harness::Runner::Outcome> outcomes;
    harness::SweepReport sweep;
    std::size_t stolen = 0;
    std::size_t restarts = 0;
    std::size_t baseline_sims = 0;
};

PassResult
runPass(const SweepPlan& plan, unsigned parallelism)
{
    harness::Runner runner;
    harness::Sweep sweep;
    for (const auto& spec : plan.grid)
        sweep.add(spec);
    PassResult r;
    if (plan.sharded) {
        harness::ShardOptions opt;
        opt.workers = parallelism;
        harness::ShardCoordinator coord(opt);
        r.outcomes = coord.run(runner, sweep);
        const harness::ShardReport& rep = coord.lastReport();
        r.sweep = rep.sweep;
        r.stolen = rep.stolen_jobs;
        r.restarts = rep.worker_restarts;
        // Worker processes keep their own baseline caches; every job
        // has its own baseline key, so each dispatch (first, stolen
        // or restarted) simulates one baseline.
        r.baseline_sims = plan.grid.size() + r.stolen + r.restarts;
    } else {
        harness::ParallelRunner pool(parallelism);
        pool.reportTo(nullptr);
        r.outcomes = pool.run(runner, sweep);
        r.sweep = pool.lastReport();
        r.baseline_sims = runner.baselinesComputed();
    }
    return r;
}

/** Spawn the shard workers once on a trivial sweep (1k instructions,
 *  no prefetcher) so that set-up covers process spawn and handshake. */
void
spawnWorkers(unsigned parallelism, RunReport& report)
{
    SweepPlan plan;
    plan.sharded = true;
    for (unsigned i = 0; i < parallelism; ++i) {
        harness::ExperimentSpec spec;
        spec.workload = kFig10Homogeneous[i % kFig10Homogeneous.size()];
        spec.warmup_instrs = 0;
        spec.sim_instrs = 1000;
        spec.workload_seed = i + 1;
        plan.grid.push_back(spec);
    }
    const PassResult r = runPass(plan, parallelism);
    for (const auto& o : r.outcomes)
        if (!(o.run.ipc_geomean > 0))
            report.fail("worker spawn probe returned an empty result");
}

std::uint64_t
digestPass(const std::vector<harness::Runner::Outcome>& outcomes)
{
    std::uint64_t d = pythia::snap::kFnvOffset;
    for (const auto& o : outcomes)
        d = digestResult(o.baseline, digestResult(o.run, d));
    return d;
}

/** Every speedup of a pass must be finite and > 0. */
void
checkOutcomes(const std::vector<harness::Runner::Outcome>& outcomes,
              RunReport& report)
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const double s = outcomes[i].metrics.speedup;
        if (!std::isfinite(s) || s <= 0) {
            report.fail("job " + std::to_string(i) + " speedup " +
                        fullDigits(s) + " is not finite and > 0");
            return;
        }
    }
}

std::vector<double>
setupSweep(RunContext& ctx, const SweepPlan& plan, RunReport& report)
{
    std::vector<double> setup_s;
    const auto loop_t0 = Clock::now();
    while (moreSetupReps(ctx, loop_t0, setup_s.size())) {
        const auto t0 = setup_s.empty() ? ctx.t_main : Clock::now();
        resolveGrid(plan);
        if (plan.sharded)
            spawnWorkers(ctx.parallelism, report);
        setup_s.push_back(secondsSince(t0));
    }
    return setup_s;
}

void
timedSweep(RunContext& ctx, const SweepPlan& plan, RunReport& report)
{
    std::vector<double> setup_s = setupSweep(ctx, plan, report);
    if (endSetupProbe(ctx, setup_s))
        return;

    std::vector<double> latencies;
    std::vector<double> pass_rates; ///< completed jobs / pass wall
    std::size_t passes = 0;
    std::size_t failed = 0;
    std::uint64_t first_digest = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < kMaxTimedSeconds &&
           (secondsSince(t0) < ctx.seconds ||
            latencies.size() + failed < kMinSamples)) {
        report.ops.attempted += plan.grid.size();
        const auto pass_t0 = Clock::now();
        try {
            const PassResult r = runPass(plan, ctx.parallelism);
            pass_rates.push_back(static_cast<double>(plan.grid.size()) /
                                 secondsSince(pass_t0));
            latencies.insert(latencies.end(), r.sweep.job_seconds.begin(),
                             r.sweep.job_seconds.end());
            checkOutcomes(r.outcomes, report);
            const std::uint64_t d = digestPass(r.outcomes);
            if (passes == 0) {
                first_digest = d;
                report.notes.push_back(
                    "model digest " + hex64(d) + " over " +
                    std::to_string(r.outcomes.size()) +
                    " jobs (run + baseline results, grid order)");
            } else if (d != first_digest) {
                report.fail("pass " + std::to_string(passes) +
                            " results differ from pass 0");
            }
        } catch (const std::exception& e) {
            pass_rates.push_back(0.0);
            failed += plan.grid.size();
            report.ops.failed += plan.grid.size();
            report.notes.push_back(std::string("pass failed: ") +
                                   e.what());
        }
        ++passes;
    }
    const double wall = secondsSince(t0);

    const LatencySummary lat = summarize(latencies, failed, wall);
    report.notes.push_back(
        std::to_string(passes) + " passes x " +
        std::to_string(plan.grid.size()) + " jobs on " +
        std::to_string(ctx.parallelism) +
        (plan.sharded ? " worker processes" : " pool threads") + ", " +
        fullDigits(wall) + " s timed; latency samples " +
        std::to_string(lat.samples) + " (" +
        std::to_string(lat.above_p90) + " above p90); failed_frac " +
        fullDigits(report.ops.failedFrac()));
    if (!lat.p90Resolved())
        report.fail("fewer than 10 latency samples above p90");

    // Read before the set-up probes, which are children too.
    const double children =
        plan.sharded ? ctx.parallelism * childPeakRssMb() : 0.0;
    const std::vector<double> probes = probeSetup(ctx);
    setup_s.insert(setup_s.end(), probes.begin(), probes.end());
    // The median pass rate: a transient slowdown of the host moves
    // fewer passes than half of them.
    report.noteValues("pass rates (1/s)", pass_rates);
    report.add("sims_per_s", median(pass_rates), "1/s");
    report.add("sim_p50_s", lat.p50, "s");
    report.add("sim_p90_s", lat.p90, "s");
    report.addSetup(setup_s);
    report.add("peak_rss_mb", selfPeakRssMb() + children, "MiB");
    report.add("ok_frac", 1.0 - report.ops.failedFrac(), "ratio");
}

void
tracedSweep(RunContext& ctx, const SweepPlan& plan, RunReport& report)
{
    const std::uint64_t pass_span = ctx.spans.begin(
        plan.sharded ? "pass.shard" : "pass.pool", 0,
        std::to_string(plan.grid.size()) + " jobs");
    report.ops.attempted += plan.grid.size();
    const PassResult pass = runPass(plan, ctx.parallelism);
    ctx.spans.end(pass_span);
    checkOutcomes(pass.outcomes, report);
    report.notes.push_back("model digest " + hex64(digestPass(pass.outcomes)) +
                           " over " + std::to_string(pass.outcomes.size()) +
                           " jobs (run + baseline results, grid order)");

    double busy = 0;
    for (double s : pass.sweep.job_seconds)
        busy += s;
    const double capacity =
        static_cast<double>(ctx.parallelism) * pass.sweep.seconds;
    report.add("harness.pool_idle_frac",
               capacity > 0 ? 1.0 - busy / capacity : 0.0, "ratio");
    report.add("harness.baseline_sims",
               static_cast<double>(pass.baseline_sims), "count");
    report.add("shard.stolen_jobs", static_cast<double>(pass.stolen),
               "count");
    report.add("shard.worker_restarts", static_cast<double>(pass.restarts),
               "count");
    std::vector<harness::Metrics> metrics;
    for (const auto& o : pass.outcomes)
        metrics.push_back(o.metrics);
    addModelMetrics(metrics, report);

    LayerTotals totals;
    const std::uint64_t traced_span = ctx.spans.begin(
        "traced.jobs", 0, std::to_string(plan.traced_jobs) + " jobs");
    for (std::size_t j = 0; j < plan.traced_jobs; ++j) {
        const auto& spec = plan.grid[j];
        const std::uint64_t job_span =
            ctx.spans.begin("job", traced_span, std::to_string(j));
        harness::ExperimentSpec base = spec;
        base.prefetcher = "none";
        const auto run = traceSimulation(spec, totals, ctx.spans, job_span);
        const auto baseline =
            traceSimulation(base, totals, ctx.spans, job_span);
        ctx.spans.end(job_span);
        if (!sameResult(run, pass.outcomes[j].run) ||
            !sameResult(baseline, pass.outcomes[j].baseline))
            report.fail("job " + std::to_string(j) +
                        ": harness::simulate differs from the sweep");
    }
    ctx.spans.end(traced_span);
    addLayerMetrics(totals, report);
}

void
runSweepWorkload(RunContext& ctx, const SweepPlan& plan, RunReport& report)
{
    if (ctx.trace)
        tracedSweep(ctx, plan, report);
    else
        timedSweep(ctx, plan, report);
}

} // namespace

void
runPythia1c(RunContext& ctx, RunReport& report)
{
    runSweepWorkload(ctx, pythia1cPlan(ctx.seed), report);
}

void
runTables4c(RunContext& ctx, RunReport& report)
{
    const SweepPlan plan = tables4cPlan(ctx.seed);
    std::set<std::string> keys;
    for (const auto& spec : plan.grid)
        keys.insert(harness::Runner::baselineKey(spec));
    if (keys.size() != plan.grid.size())
        report.fail("tables_4c jobs share baseline keys");
    runSweepWorkload(ctx, plan, report);
}

} // namespace perfbench
