#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

double
CallStats::correctedNs(double clock_cost_ns) const
{
    return std::max(0.0, static_cast<double>(ns) -
                             clock_cost_ns * static_cast<double>(calls));
}

double
clockCostNs()
{
    static const double cost = [] {
        std::vector<double> batches;
        for (int b = 0; b < 31; ++b) {
            std::uint64_t total = 0;
            constexpr int kPairs = 2000;
            for (int i = 0; i < kPairs; ++i) {
                const auto t0 = Clock::now();
                total += nsSince(t0);
            }
            batches.push_back(static_cast<double>(total) / kPairs);
        }
        std::nth_element(batches.begin(),
                         batches.begin() + batches.size() / 2,
                         batches.end());
        return batches[batches.size() / 2];
    }();
    return cost;
}

void
TracedPrefetcher::train(const pythia::sim::PrefetchAccess& access,
                        std::vector<pythia::sim::PrefetchRequest>& out)
{
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    inner_->train(access, out);
    stats_.train.ns += nsSince(t0);
    ++stats_.train.calls;
    stats_.candidates += out.size() - before;
}

void
TracedPrefetcher::onFill(pythia::Addr block, pythia::Cycle at)
{
    const auto t0 = Clock::now();
    inner_->onFill(block, at);
    stats_.callbacks.ns += nsSince(t0);
    ++stats_.callbacks.calls;
}

void
TracedPrefetcher::onPrefetchUsed(pythia::Addr block, bool timely)
{
    const auto t0 = Clock::now();
    inner_->onPrefetchUsed(block, timely);
    stats_.callbacks.ns += nsSince(t0);
    ++stats_.callbacks.calls;
}

void
TracedPrefetcher::onPrefetchEvicted(pythia::Addr block, bool used)
{
    const auto t0 = Clock::now();
    inner_->onPrefetchEvicted(block, used);
    stats_.callbacks.ns += nsSince(t0);
    ++stats_.callbacks.calls;
}

void
TracedPrefetcher::setBandwidthInfo(const pythia::sim::BandwidthInfo* bw)
{
    inner_->setBandwidthInfo(bw);
}

pythia::wl::TraceRecord
TracedWorkload::next()
{
    const auto t0 = Clock::now();
    const pythia::wl::TraceRecord r = inner_->next();
    stats_.ns += nsSince(t0);
    ++stats_.calls;
    return r;
}

std::uint64_t
SpanLog::begin(const std::string& name, std::uint64_t parent,
               std::string detail)
{
    const std::uint64_t now = nsSince(t0_);
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.detail = std::move(detail);
    s.start_ns = now;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::end(std::uint64_t id)
{
    const std::uint64_t now = nsSince(t0_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).end_ns = now;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::writeJson(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"name\": \"" << s.name << "\", \"detail\": \""
           << s.detail << "\", \"start_ns\": " << s.start_ns
           << ", \"end_ns\": " << s.end_ns << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
