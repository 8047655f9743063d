#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "harness/perf.hpp"

namespace perfbench {

LatencySummary
summarize(std::vector<double> seconds, std::size_t failed,
          double failed_latency)
{
    seconds.insert(seconds.end(), failed, failed_latency);
    std::sort(seconds.begin(), seconds.end());
    LatencySummary s;
    s.samples = seconds.size();
    if (seconds.empty())
        return s;
    s.p50 = pythia::harness::percentileSorted(seconds, 50);
    s.p90 = pythia::harness::percentileSorted(seconds, 90);
    const auto rank90 = static_cast<std::size_t>(
        std::ceil(0.9 * static_cast<double>(seconds.size())));
    s.above_p90 = seconds.size() - std::max<std::size_t>(rank90, 1);
    return s;
}

double
OpCount::failedFrac() const
{
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2)
        return v[mid];
    return (*std::max_element(v.begin(), v.begin() + mid) + v[mid]) / 2;
}

void
RunReport::noteValues(const std::string& label,
                      const std::vector<double>& values)
{
    std::string line = label + ":";
    for (double v : values)
        line += " " + fullDigits(v);
    notes.push_back(line);
}

double
setupFigure(std::vector<double> reps)
{
    if (reps.empty())
        return 0.0;
    std::sort(reps.begin(), reps.end());
    return pythia::harness::percentileSorted(reps, 10);
}

void
RunReport::addSetup(const std::vector<double>& reps)
{
    const auto [lo, hi] = std::minmax_element(reps.begin(), reps.end());
    notes.push_back(std::to_string(reps.size()) +
                    " set-up repetitions (s): min " + fullDigits(*lo) +
                    ", median " + fullDigits(median(reps)) + ", max " +
                    fullDigits(*hi));
    add("setup_s", setupFigure(reps), "s");
}

void
RunReport::fail(const std::string& what)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fullDigits(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
RunReport::print(std::ostream& os) const
{
    for (const std::string& n : notes)
        os << n << "\n";
    for (const Metric& m : metrics) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-36s %16.6g %s",
                      m.name.c_str(), m.value, m.unit.c_str());
        os << line << "\n";
    }
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << ops.attempted
       << ", \"failed\": " << ops.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << fullDigits(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}" << std::endl;
}

double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(1 << 16, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
childPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
