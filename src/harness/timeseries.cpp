#include "harness/timeseries.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace pythia::harness {

void
TimeSeries::onWindowEnd(SimSession& session, const WindowSample& w)
{
    (void)session;
    samples_.push_back(w);
}

void
TimeSeries::append(WindowSample sample)
{
    samples_.push_back(std::move(sample));
}

const sim::RunResult&
TimeSeries::finalResult() const
{
    if (samples_.empty())
        throw std::logic_error("TimeSeries::finalResult(): no samples");
    return samples_.back().cumulative;
}

sim::RunResult
TimeSeries::composeRange(std::uint64_t instrs_begin,
                         std::uint64_t instrs_end) const
{
    if (instrs_end <= instrs_begin)
        throw std::invalid_argument(
            "TimeSeries::composeRange: empty range");
    sim::RunResult acc;
    std::uint64_t cursor = instrs_begin;
    for (const WindowSample& w : samples_) {
        if (w.instrs_end <= instrs_begin)
            continue;
        if (w.instrs_begin != cursor)
            break; // misaligned start or gap — fall through to throw
        accumulateDelta(acc, w.delta);
        cursor = w.instrs_end;
        if (cursor == instrs_end)
            return acc;
        if (cursor > instrs_end)
            break; // range ends inside this window
    }
    throw std::invalid_argument(
        "TimeSeries::composeRange: [" + std::to_string(instrs_begin) +
        ", " + std::to_string(instrs_end) +
        ") does not align with recorded window boundaries");
}

namespace {

/**
 * The one column list behind csvHeader(), csvRow() and writeJson():
 * calls @p emit(name, value) once per column, in order, with value a
 * std::uint64_t (integer column) or a double.
 */
template <class Emit>
void
forEachColumn(const WindowSample& w, Emit&& emit)
{
    emit("window", static_cast<std::uint64_t>(w.index));
    emit("instrs_begin", w.instrs_begin);
    emit("instrs_end", w.instrs_end);
    emit("ipc_geomean", w.delta.ipc_geomean);
    emit("cum_ipc_geomean", w.cumulative.ipc_geomean);
    // Every window counter but instructions, which is
    // instrs_end - instrs_begin.
    for (const sim::RunCounter& c : sim::kRunCounters)
        if (c.field != &sim::RunResult::instructions)
            emit(c.name, w.delta.*c.field);
    emit("accuracy", w.delta.accuracy());
    emit("cum_accuracy", w.cumulative.accuracy());
    emit("dram_utilization", w.delta.dram_utilization);
}

/** One sample's columns joined by @p sep, each as `"name": value` when
 *  @p named or as the bare value otherwise; doubles printed with %g at
 *  @p digits significant digits, integers in full. */
std::string
formatColumns(const WindowSample& w, int digits, const char* sep,
              bool named)
{
    std::string out;
    forEachColumn(w, [&](const char* name, auto v) {
        if (!out.empty())
            out += sep;
        if (named)
            out.append("\"").append(name).append("\": ");
        char buf[64];
        if constexpr (std::is_same_v<decltype(v), double>)
            std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        else
            std::snprintf(buf, sizeof buf, "%" PRIu64, v);
        out += buf;
    });
    return out;
}

} // namespace

const char*
TimeSeries::csvHeader()
{
    static const std::string header = [] {
        std::string h;
        const char* sep = "";
        forEachColumn(WindowSample{}, [&](const char* name, auto) {
            h += sep;
            h += name;
            sep = ",";
        });
        return h;
    }();
    return header.c_str();
}

std::string
TimeSeries::csvRow(const WindowSample& w)
{
    return formatColumns(w, 6, ",", false);
}

void
TimeSeries::writeCsv(std::ostream& os) const
{
    os << csvHeader() << "\n";
    for (const WindowSample& w : samples_)
        os << csvRow(w) << "\n";
}

bool
TimeSeries::writeCsv(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeCsv(f);
    return static_cast<bool>(f);
}

void
TimeSeries::writeJson(std::ostream& os) const
{
    os << "{\n  \"schema\": \"pythia-timeseries-v1\",\n  \"windows\": [";
    for (std::size_t i = 0; i < samples_.size(); ++i)
        os << (i > 0 ? ",\n    {" : "\n    {")
           << formatColumns(samples_[i], 9, ", ", true) << '}';
    os << "\n  ]\n}\n";
}

bool
TimeSeries::writeJson(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f);
    return static_cast<bool>(f);
}

} // namespace pythia::harness
