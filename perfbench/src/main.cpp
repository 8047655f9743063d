/**
 * @file
 * perfbench --workload <pythia_1c|tables_4c|serve_mixed> --seed <n>
 *           --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics with no tracing;
 * --trace 1 is the separate traced run that reports the per-layer
 * metrics (and writes its spans to <out>/spans-<workload>-<seed>.json).
 * Both print human-readable lines, then one JSON line (the last line
 * of stdout). Exit code 0 unless the run could not complete.
 *
 * perfbench --workload <w> --seed <n> --setup-probe 1 only repeats the
 * workload's set-up and prints the repetitions (see probeSetup()).
 */
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kEndToEnd = {
    "sims_per_s", "sim_p50_s", "sim_p90_s", "setup_s", "peak_rss_mb",
    "ok_frac"};

/** Every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workloads.next_ns", "ns"},
    {"workloads.self_frac", "ratio"},
    {"sim.self_frac", "ratio"},
    {"sim.ns_per_instr", "ns"},
    {"sim.retired_over_budget", "ratio"},
    {"sim.core_ipc_min_over_max", "ratio"},
    {"sim.l2.mshr_stalls", "count"},
    {"sim.l2.prefetch_dropped", "count"},
    {"sim.l2.prefetch_useful_late", "count"},
    {"sim.llc.miss_frac", "ratio"},
    {"sim.dram.row_hit_frac", "ratio"},
    {"sim.dram.bus_busy_frac", "ratio"},
    {"prefetch.pythia.train_ns", "ns"},
    {"prefetch.stride.train_ns", "ns"},
    {"prefetch.spp.train_ns", "ns"},
    {"prefetch.bingo.train_ns", "ns"},
    {"prefetch.self_frac", "ratio"},
    {"prefetch.candidates_per_train", "count"},
    {"model.speedup_geomean", "ratio"},
    {"model.accuracy_mean", "ratio"},
    {"model.coverage_mean", "ratio"},
    {"harness.pool_idle_frac", "ratio"},
    {"harness.baseline_sims", "count"},
    {"shard.stolen_jobs", "count"},
    {"shard.worker_restarts", "count"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.image_kb", "KiB"},
    {"snapshot.warmup_ms", "ms"},
    {"snapshot.long.save_ms", "ms"},
    {"snapshot.long.restore_ms", "ms"},
    {"snapshot.long.warmup_ms", "ms"},
    {"service.open_ms", "ms"},
    {"service.first_window_ms", "ms"},
    {"service.replay_short_ms", "ms"},
    {"service.replay_long_ms", "ms"},
    {"service.warm_hit_frac", "ratio"},
    {"service.wire.encode_access_ns", "ns"},
    {"service.wire.decode_access_ns", "ns"},
    {"service.records_per_replay", "count"},
    {"trace.overhead_frac", "ratio"},
};

/** A workload: its entry point and the per-layer metric prefixes of
 *  the layers it does not run, which read 0. */
struct Workload
{
    void (*run)(RunContext&, RunReport&);
    std::vector<std::string> not_run;
};

const std::map<std::string, Workload> kWorkloads = {
    {"pythia_1c",
     {runPythia1c,
      {"service.", "snapshot.", "prefetch.stride.", "prefetch.spp.",
       "prefetch.bingo."}}},
    {"tables_4c", {runTables4c, {"service.", "snapshot.", "prefetch.pythia."}}},
    {"serve_mixed",
     {runServeMixed,
      {"harness.", "shard.", "prefetch.stride.", "prefetch.spp.",
       "prefetch.bingo."}}},
};

bool
hasPrefix(const std::string& name, const std::vector<std::string>& prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string& p) {
                           return name.rfind(p, 0) == 0;
                       });
}

/** Keep exactly the metrics of this run's kind, in canonical order.
 *  A per-layer metric of a layer in @p not_run reads 0; any other
 *  metric that was not measured, and any measured one that is not
 *  listed, is an error. */
void
canonicalize(RunReport& report, bool trace,
             const std::vector<std::string>& not_run)
{
    std::vector<std::pair<std::string, std::string>> names;
    if (trace)
        names = kPerLayer;
    else
        for (const std::string& name : kEndToEnd)
            names.emplace_back(name, "");
    std::map<std::string, Metric> got;
    for (const Metric& m : report.metrics)
        got[m.name] = m;
    report.metrics.clear();
    for (const auto& [name, unit] : names) {
        const auto it = got.find(name);
        if (it != got.end()) {
            report.metrics.push_back(it->second);
            got.erase(it);
        } else if (trace && hasPrefix(name, not_run)) {
            report.metrics.push_back({name, 0.0, unit});
        } else {
            throw std::logic_error("metric " + name + " not measured");
        }
    }
    if (!got.empty())
        throw std::logic_error("metric " + got.begin()->first +
                               " is not a " +
                               (trace ? "per-layer" : "end-to-end") +
                               " metric");
}

std::string
exeDir()
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(".") : exe.parent_path().string();
}

int
usage(const char* msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <pythia_1c|tables_4c|"
                 "serve_mixed> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    RunContext ctx;
    ctx.t_main = Clock::now();
    std::string workload;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                workload = val;
            else if (key == "--seed")
                ctx.seed = std::stoull(val);
            else if (key == "--seconds")
                ctx.seconds = std::stod(val);
            else if (key == "--trace")
                ctx.trace = std::stoi(val) != 0;
            else if (key == "--setup-probe")
                ctx.setup_probe = std::stoi(val) != 0;
            else
                return usage(("unknown option " + key).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + key).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("options take one value each");
    if (ctx.setup_probe && ctx.trace)
        return usage("--setup-probe times the untraced set-up only");

    const auto entry = kWorkloads.find(workload);
    if (entry == kWorkloads.end())
        return usage(("unknown workload '" + workload + "'").c_str());

    ctx.workload = workload;
    ctx.exe_dir = exeDir();
    ctx.out_dir = ".bench_out";
    ctx.parallelism =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::filesystem::create_directories(ctx.out_dir);

    RunReport report;
    report.notes.push_back(
        "perfbench " + workload + " seed=" + std::to_string(ctx.seed) +
        " trace=" + (ctx.trace ? "1" : "0") +
        "; host time throughout; the model is unvalidated against "
        "hardware (no reference results), so no error figure is given");
    try {
        entry->second.run(ctx, report);
        if (ctx.setup_probe)
            return report.correct ? 0 : 1;
        canonicalize(report, ctx.trace, entry->second.not_run);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    if (ctx.trace) {
        const std::string path = ctx.out_dir + "/spans-" + workload + "-" +
                                 std::to_string(ctx.seed) + ".json";
        if (!ctx.spans.writeJson(path))
            report.fail("cannot write " + path);
        else
            report.notes.push_back(std::to_string(ctx.spans.size()) +
                                   " spans written to " + path);
    }
    if (report.ops.attempted == 0) {
        std::cerr << "perfbench: " << workload << " attempted nothing\n";
        return 1;
    }
    report.print(std::cout);
    return 0;
}
