#include "layers.hpp"

#include <algorithm>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "sim/prefetcher_registry.hpp"
#include "snapshot/codec.hpp"

namespace perfbench {

namespace harness = pythia::harness;
namespace sim = pythia::sim;

namespace {

std::vector<std::uint8_t>
resultBytes(const sim::RunResult& r)
{
    pythia::snap::Writer w;
    harness::writeRunResult(w, r);
    return w.buffer();
}

/** A traced instance of registry spec @p pf_spec (nullptr for "none"),
 *  accumulating into the per-spec stats of @p totals. */
std::unique_ptr<sim::PrefetcherApi>
tracedPrefetcher(const std::string& pf_spec, LayerTotals& totals)
{
    auto pf = sim::makePrefetcher(pf_spec);
    if (!pf)
        return nullptr;
    return std::make_unique<TracedPrefetcher>(std::move(pf),
                                              totals.prefetchers[pf_spec]);
}

} // namespace

bool
sameResult(const sim::RunResult& a, const sim::RunResult& b)
{
    return resultBytes(a) == resultBytes(b);
}

std::uint64_t
digestResult(const sim::RunResult& r, std::uint64_t seed)
{
    const std::vector<std::uint8_t> bytes = resultBytes(r);
    return pythia::snap::fnv1a(bytes.data(), bytes.size(), seed);
}

sim::RunResult
traceSimulation(const harness::ExperimentSpec& spec, LayerTotals& totals,
                SpanLog& spans, std::uint64_t parent)
{
    const std::string what =
        (spec.mix.empty() ? spec.workload : std::string("mix")) + "/" +
        spec.prefetcher + "/" + std::to_string(spec.num_cores) + "c";
    const std::uint32_t cores = spec.num_cores;

    const std::uint64_t untraced_span =
        spans.begin("session.untraced", parent, what);
    auto t0 = Clock::now();
    const sim::RunResult reference = harness::simulate(spec);
    totals.untraced_s += secondsSince(t0);
    spans.end(untraced_span);

    const std::uint64_t traced_span =
        spans.begin("session.traced", parent, what);
    t0 = Clock::now();
    std::vector<std::unique_ptr<pythia::wl::Workload>> workloads;
    for (auto& w : harness::workloadsFor(spec))
        workloads.push_back(
            std::make_unique<TracedWorkload>(std::move(w), totals.workload));
    sim::System system(harness::systemConfigFor(spec),
                       std::move(workloads));
    // Same construction and attach order as SimSession.
    for (std::uint32_t c = 0; c < cores; ++c) {
        if (auto pf = tracedPrefetcher(spec.prefetcher, totals))
            system.attachL2Prefetcher(c, std::move(pf));
        if (auto pf = tracedPrefetcher(spec.l1_prefetcher, totals))
            system.attachL1Prefetcher(c, std::move(pf));
    }
    const std::uint64_t warm_span = spans.begin("warmup", traced_span);
    system.warmup(spec.warmup_instrs);
    spans.end(warm_span);

    const std::uint64_t measure_span = spans.begin("measure", traced_span);
    std::vector<std::uint64_t> origin(cores);
    for (std::uint32_t c = 0; c < cores; ++c)
        origin[c] = system.core(c).instrsRetired();
    system.beginMeasurement();
    system.stepMeasuredTo(spec.sim_instrs);
    const sim::RunResult traced = system.collectResult();
    spans.end(measure_span);
    totals.traced_s += secondsSince(t0);
    spans.end(traced_span);

    ++totals.sims;
    if (!sameResult(traced, reference))
        ++totals.mismatches;
    totals.budget_instrs +=
        (spec.warmup_instrs + spec.sim_instrs) * cores;
    totals.measured_budget += spec.sim_instrs * cores;

    std::uint64_t max_cycles = 0;
    for (std::uint32_t c = 0; c < cores; ++c) {
        totals.retired += system.core(c).instrsRetired() - origin[c];
        max_cycles = std::max(max_cycles, traced.core_cycles[c]);
        const auto& l2 = system.l2(c).stats();
        totals.l2_mshr_stalls += l2.counter("mshr_stalls");
        totals.l2_prefetch_dropped += l2.counter("prefetch_dropped");
        totals.l2_prefetch_useful_late +=
            l2.counter("prefetch_useful_late");
    }
    const auto [lo, hi] =
        std::minmax_element(traced.ipc.begin(), traced.ipc.end());
    totals.ipc_min_over_max_sum += *hi > 0 ? *lo / *hi : 0.0;

    const auto& llc = system.llc().stats();
    totals.llc_accesses += llc.counter("demand_load_access") +
                           llc.counter("demand_store_access");
    totals.llc_misses += llc.counter("demand_load_miss") +
                         llc.counter("demand_store_miss");
    const auto& dram = system.dram().stats();
    totals.dram_row_hits += dram.counter("row_hits");
    totals.dram_row_misses += dram.counter("row_misses");
    totals.dram_busy_cycles += dram.counter("bus_busy_cycles");
    totals.dram_bus_cycles +=
        static_cast<std::uint64_t>(system.dram().config().channels) *
        max_cycles;
    return reference;
}

void
addModelMetrics(const std::vector<harness::Metrics>& metrics,
                RunReport& report)
{
    std::vector<double> speedups;
    double acc = 0, cov = 0;
    for (const harness::Metrics& m : metrics) {
        speedups.push_back(std::max(1e-9, m.speedup));
        acc += m.accuracy;
        cov += m.coverage;
    }
    const double n =
        static_cast<double>(std::max<std::size_t>(metrics.size(), 1));
    report.add("model.speedup_geomean", pythia::geomean(speedups), "ratio");
    report.add("model.accuracy_mean", acc / n, "ratio");
    report.add("model.coverage_mean", cov / n, "ratio");
}

void
addLayerMetrics(const LayerTotals& t, RunReport& report)
{
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double clock_ns = clockCostNs();
    std::uint64_t calls = t.workload.calls;
    double pf_ns = 0.0;
    std::uint64_t train_calls = 0;
    std::uint64_t candidates = 0;
    for (const auto& [name, s] : t.prefetchers) {
        calls += s.train.calls + s.callbacks.calls;
        pf_ns += s.train.correctedNs(clock_ns) +
                 s.callbacks.correctedNs(clock_ns);
        train_calls += s.train.calls;
        candidates += s.candidates;
    }
    const double wl_ns = t.workload.correctedNs(clock_ns);
    // Each timed call adds about two clock reads to the traced wall;
    // shares are taken of the wall without them.
    const double wall_ns = std::max(
        1.0, t.traced_s * 1e9 - 2.0 * clock_ns * static_cast<double>(calls));
    const double sims = static_cast<double>(std::max<std::size_t>(t.sims, 1));

    report.add("workloads.next_ns",
               ratio(wl_ns, static_cast<double>(t.workload.calls)), "ns");
    report.add("workloads.self_frac", wl_ns / wall_ns, "ratio");
    report.add("sim.self_frac", 1.0 - (wl_ns + pf_ns) / wall_ns, "ratio");
    report.add("sim.ns_per_instr",
               ratio(t.untraced_s * 1e9,
                     static_cast<double>(t.budget_instrs)),
               "ns");
    report.add("sim.retired_over_budget",
               ratio(static_cast<double>(t.retired),
                     static_cast<double>(t.measured_budget)),
               "ratio");
    report.add("sim.core_ipc_min_over_max",
               t.ipc_min_over_max_sum / sims, "ratio");
    report.add("sim.l2.mshr_stalls",
               static_cast<double>(t.l2_mshr_stalls) / sims, "count");
    report.add("sim.l2.prefetch_dropped",
               static_cast<double>(t.l2_prefetch_dropped) / sims, "count");
    report.add("sim.l2.prefetch_useful_late",
               static_cast<double>(t.l2_prefetch_useful_late) / sims,
               "count");
    report.add("sim.llc.miss_frac",
               ratio(static_cast<double>(t.llc_misses),
                     static_cast<double>(t.llc_accesses)),
               "ratio");
    report.add("sim.dram.row_hit_frac",
               ratio(static_cast<double>(t.dram_row_hits),
                     static_cast<double>(t.dram_row_hits +
                                         t.dram_row_misses)),
               "ratio");
    report.add("sim.dram.bus_busy_frac",
               ratio(static_cast<double>(t.dram_busy_cycles),
                     static_cast<double>(t.dram_bus_cycles)),
               "ratio");
    for (const auto& [name, s] : t.prefetchers)
        report.add("prefetch." + name + ".train_ns",
                   ratio(s.train.correctedNs(clock_ns),
                         static_cast<double>(s.train.calls)),
                   "ns");
    report.add("prefetch.self_frac", pf_ns / wall_ns, "ratio");
    report.add("prefetch.candidates_per_train",
               ratio(static_cast<double>(candidates),
                     static_cast<double>(train_calls)),
               "count");
    report.add("trace.overhead_frac", ratio(t.traced_s, t.untraced_s) - 1.0,
               "ratio");
    report.notes.push_back(
        "traced " + std::to_string(t.sims) + " simulations; clock cost " +
        fullDigits(clock_ns) + " ns/call subtracted from " +
        std::to_string(calls) + " timed calls");
    if (t.mismatches)
        report.fail(std::to_string(t.mismatches) +
                    " traced simulations differ from harness::simulate");
}

} // namespace perfbench
