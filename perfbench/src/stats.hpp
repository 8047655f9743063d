/**
 * @file
 * Sample statistics and the result document of one benchmark run.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/** The end-to-end latency summary of one run. */
struct LatencySummary
{
    std::size_t samples = 0;   ///< completed + failed operations
    double p50 = 0.0;          ///< nearest-rank median
    double p90 = 0.0;          ///< nearest-rank 90th percentile
    std::size_t above_p90 = 0; ///< samples ranked above the p90 sample
    /** p90 is reported only when at least this many samples rank above
     *  it (fewer means the tail is a handful of outliers). */
    static constexpr std::size_t kMinAboveP90 = 10;
    bool p90Resolved() const { return above_p90 >= kMinAboveP90; }
};

/**
 * Summarize completed-operation latencies @p seconds plus @p failed
 * failed or refused operations. A failed operation missed every
 * latency limit, so it enters the distribution as @p failed_latency
 * (the caller passes the length of the timed phase: the operation did
 * not finish within it).
 */
LatencySummary summarize(std::vector<double> seconds, std::size_t failed,
                         double failed_latency);

/** Operations attempted and failed (or refused) in a run. */
struct OpCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** failed / attempted; 0 when nothing was attempted. */
    double failedFrac() const;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run prints: human-readable lines, then the JSON line. */
struct RunReport
{
    bool correct = true;
    OpCount ops;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< printed before the metrics

    void add(const std::string& name, double value,
             const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** setup_s: setupFigure() of the set-up repetitions @p reps (their
     *  count and spread go in a note). */
    void addSetup(const std::vector<double>& reps);

    /** A note "<label>: v1 v2 ..." listing @p values. */
    void noteValues(const std::string& label,
                    const std::vector<double>& values);

    /** Record a failed output check (prints it and clears correct). */
    void fail(const std::string& what);

    /** Human-readable block, then the one-line JSON result (last). */
    void print(std::ostream& os) const;
};

/** Median of @p v (mean of the middle two for an even count); 0 when
 *  empty. */
double median(std::vector<double> v);

/** Nearest-rank 10th percentile of @p reps; 0 when empty. A low
 *  quantile of many repetitions leaves out the ones a busy host
 *  slowed down. */
double setupFigure(std::vector<double> reps);

/** 16 hex digits of @p v. */
std::string hex64(std::uint64_t v);

/** Format @p v with every significant digit. */
std::string fullDigits(double v);

/** This process's peak resident set (VmHWM), MiB. */
double selfPeakRssMb();

/** Largest peak resident set of any reaped child process, MiB. */
double childPeakRssMb();

} // namespace perfbench
