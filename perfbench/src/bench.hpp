/**
 * @file
 * Shared context of one benchmark run and the workload entry points.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunContext
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string exe_dir;  ///< where perfbench and its helpers live
    std::string out_dir;  ///< scratch/output directory (spans, sockets)
    Clock::time_point t_main; ///< first instruction of main()
    /** Pool threads, worker processes or client connections:
     *  nproc, capped at 4. */
    unsigned parallelism = 4;
    SpanLog spans;
    std::string workload;
    bool setup_probe = false; ///< --setup-probe: time the set-up only
};

/** setup_s pools the set-up repetitions of kSetupProbes fresh probe
 *  processes (perfbench --setup-probe 1), each repeating the workload's
 *  set-up for kProbeSeconds and at least kMinProbeReps times, with the
 *  run's own set-up, and reports their nearest-rank 10th percentile.
 *  Set-up lasts milliseconds and its cost differs from one process to
 *  the next (by up to 1.6x on a shared 4-vCPU VM), so repetitions inside
 *  one process would move with that process rather than with the code. */
inline constexpr int kSetupProbes = 8;
inline constexpr double kProbeSeconds = 0.12;
inline constexpr std::size_t kMinProbeReps = 3;

/** True while a set-up loop that started at @p t0 and has run @p reps
 *  times should run again: once in a run, repeatedly in a probe. The
 *  first repetition is timed from RunContext::t_main. */
bool moreSetupReps(const RunContext& ctx, Clock::time_point t0,
                   std::size_t reps);

/** In a probe, print @p reps as the "setup-reps" line and return true:
 *  the caller stops there. False in a run. */
bool endSetupProbe(const RunContext& ctx, const std::vector<double>& reps);

/** Run kSetupProbes probes of this run's workload and seed, one after
 *  the other; their repetitions, pooled. Throws when a probe fails. */
std::vector<double> probeSetup(const RunContext& ctx);

/** Nearest-rank p90 needs this many samples to leave
 *  LatencySummary::kMinAboveP90 above it; the timed phase extends past
 *  --seconds until it has them. */
inline constexpr std::size_t kMinSamples = 100;

/** Hard cap on the timed phase, whatever the sample count. */
inline constexpr double kMaxTimedSeconds = 120.0;

/** Distinct, non-zero workload seed number @p k of run seed @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t k);

void runPythia1c(RunContext& ctx, RunReport& report);
void runTables4c(RunContext& ctx, RunReport& report);
void runServeMixed(RunContext& ctx, RunReport& report);

} // namespace perfbench
