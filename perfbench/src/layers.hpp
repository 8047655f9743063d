/**
 * @file
 * Per-layer measurement of single simulations: each spec runs once
 * untraced through harness::simulate and once through a sim::System
 * built here with traced prefetchers and workloads; the two RunResults
 * must be bit-identical. Host time per layer comes from the
 * decorators, modelled counters from the components' StatGroups.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/spec.hpp"
#include "sim/system.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/** Sums over every simulation traced in one run. */
struct LayerTotals
{
    std::size_t sims = 0;
    std::size_t mismatches = 0; ///< traced result != untraced result
    double traced_s = 0.0;
    double untraced_s = 0.0;
    std::uint64_t budget_instrs = 0; ///< (warmup + sim) x cores

    CallStats workload;
    std::map<std::string, PrefetcherStats> prefetchers; ///< by spec

    // Measured window only (the StatGroups reset at beginMeasurement).
    std::uint64_t retired = 0;         ///< Core::instrsRetired growth
    std::uint64_t measured_budget = 0; ///< sim_instrs x cores
    double ipc_min_over_max_sum = 0.0;
    std::uint64_t l2_mshr_stalls = 0;
    std::uint64_t l2_prefetch_dropped = 0;
    std::uint64_t l2_prefetch_useful_late = 0;
    std::uint64_t llc_accesses = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t dram_row_hits = 0;
    std::uint64_t dram_row_misses = 0;
    std::uint64_t dram_busy_cycles = 0;
    std::uint64_t dram_bus_cycles = 0; ///< channels x measured cycles
};

/** Bit-exact comparison of two RunResults (via the result codec). */
bool sameResult(const pythia::sim::RunResult& a,
                const pythia::sim::RunResult& b);

/** FNV-1a digest of the result codec bytes of @p r, folded into
 *  @p seed. */
std::uint64_t digestResult(const pythia::sim::RunResult& r,
                           std::uint64_t seed);

/**
 * Simulate @p spec traced (decorated System) and untraced
 * (harness::simulate), accumulate into @p totals, and return the
 * untraced result. A mismatch is counted in totals.mismatches. Spans
 * go to @p spans under @p parent.
 */
pythia::sim::RunResult
traceSimulation(const pythia::harness::ExperimentSpec& spec,
                LayerTotals& totals, SpanLog& spans,
                std::uint64_t parent);

/** model.speedup_geomean, model.accuracy_mean and model.coverage_mean
 *  over @p metrics (one per prefetched run and its baseline). */
void addModelMetrics(const std::vector<pythia::harness::Metrics>& metrics,
                     RunReport& report);

/** The sim, workloads, prefetch and tracing per-layer metrics. */
void addLayerMetrics(const LayerTotals& totals, RunReport& report);

} // namespace perfbench
