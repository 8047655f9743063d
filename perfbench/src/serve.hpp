/**
 * @file
 * The serve_mixed client side: tenant cases, one replay against a
 * pythia_serve daemon, the closed loop, and failure accounting.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/spec.hpp"
#include "sim/system.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/trace.hpp"

namespace perfbench {

/** One distinct tenant spec, its captured record stream and the
 *  offline reference its streamed windows must equal. */
struct TenantCase
{
    pythia::harness::ExperimentSpec spec;
    std::uint64_t window = 0;
    bool long_tenant = false;
    std::vector<pythia::wl::TraceRecord> records;
    std::uint64_t reference_csv = 0; ///< digest of the offline CSV
    pythia::sim::RunResult reference_final;
};

/** What one replay observed. ok is false when the daemon refused or
 *  failed it (an exception) or it ended without RunEnd. */
struct Replay
{
    std::size_t case_index = 0;
    bool ok = false;
    bool warm = false;
    double latency_s = 0;      ///< open .. RunEnd
    double done_s = 0;         ///< RunEnd, from the loop's start
    double open_s = 0;         ///< the open() call
    double first_window_s = 0; ///< streamRun start .. first window
    std::uint64_t records = 0;
    std::uint64_t csv = 0;     ///< digest of the streamed TimeSeries CSV
    pythia::sim::RunResult final_result;
};

/** Open tenant @p tenant for @p c on @p address and stream it to
 *  RunEnd. Throws what ServeClient throws. Spans go to @p spans when
 *  non-null. */
Replay runReplay(const std::string& address, const TenantCase& c,
                 const std::string& tenant, SpanLog* spans);

/**
 * Closed loop: @p clients threads each open their next tenant only
 * after the previous one reached RunEnd. Replay r uses case
 * @p case_for(r). Stops issuing once @p seconds have elapsed and at
 * least @p min_replays were issued. @p wall receives the loop's
 * duration.
 */
std::vector<Replay>
closedLoop(const std::string& address, const std::vector<TenantCase>& cases,
           std::size_t (*case_for)(std::size_t), unsigned clients,
           double seconds, std::size_t min_replays, SpanLog* spans,
           double& wall);

/**
 * Failure accounting and output check: every replay is attempted;
 * failed or refused ones are failed; a completed replay whose streamed
 * CSV or final result differs from its case's reference fails the
 * report's correctness.
 */
void tallyReplays(const std::vector<Replay>& replays,
                  const std::vector<TenantCase>& cases, RunReport& report);

} // namespace perfbench
