/**
 * @file
 * Tracing from outside the program: decorators around the two
 * extension interfaces sim::System accepts (PrefetcherApi, Workload),
 * per-call count/ns accumulators, a span log written at exit, and the
 * calibrated cost of the clock reads the decorators add.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/prefetcher_api.hpp"
#include "workloads/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Calls through one boundary: how many, and host ns spent inside
 *  (including one clock read per call; see clockCostNs()). */
struct CallStats
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    /** ns with @p clock_cost_ns per call taken out, never negative. */
    double correctedNs(double clock_cost_ns) const;
};

/** Accumulators of one traced prefetcher. */
struct PrefetcherStats
{
    CallStats train;
    CallStats callbacks; ///< onFill/onPrefetchUsed/onPrefetchEvicted
    std::uint64_t candidates = 0;
};

/**
 * Median host ns between two back-to-back steady_clock reads: what a
 * timed call adds to its own interval. Measured once per process.
 */
double clockCostNs();

/**
 * PrefetcherApi decorator: forwards every hook to the wrapped
 * prefetcher and times train() and the feedback hooks. Not
 * thread-safe; one System drives it from one thread.
 */
class TracedPrefetcher : public pythia::sim::PrefetcherApi
{
  public:
    TracedPrefetcher(std::unique_ptr<pythia::sim::PrefetcherApi> inner,
                     PrefetcherStats& stats)
        : inner_(std::move(inner)), stats_(stats)
    {
    }

    void train(const pythia::sim::PrefetchAccess& access,
               std::vector<pythia::sim::PrefetchRequest>& out) override;
    void onFill(pythia::Addr block, pythia::Cycle at) override;
    void onPrefetchUsed(pythia::Addr block, bool timely) override;
    void onPrefetchEvicted(pythia::Addr block, bool used) override;
    void setBandwidthInfo(const pythia::sim::BandwidthInfo* bw) override;
    const std::string& name() const override { return inner_->name(); }
    std::size_t storageBytes() const override
    {
        return inner_->storageBytes();
    }
    void saveState(pythia::snap::Writer& w) const override
    {
        inner_->saveState(w);
    }
    void loadState(pythia::snap::Reader& r) override
    {
        inner_->loadState(r);
    }

  private:
    std::unique_ptr<pythia::sim::PrefetcherApi> inner_;
    PrefetcherStats& stats_;
};

/**
 * Workload decorator: times next() and forwards reset()/name();
 * clone() wraps the inner clone in a decorator sharing the same
 * accumulator, so multi-core mixes built by cloning stay traced.
 */
class TracedWorkload : public pythia::wl::Workload
{
  public:
    TracedWorkload(std::unique_ptr<pythia::wl::Workload> inner,
                   CallStats& stats)
        : inner_(std::move(inner)), stats_(stats)
    {
    }

    pythia::wl::TraceRecord next() override;
    void reset() override { inner_->reset(); }
    const std::string& name() const override { return inner_->name(); }
    std::unique_ptr<pythia::wl::Workload>
    clone(std::uint64_t reseed) const override
    {
        return std::make_unique<TracedWorkload>(inner_->clone(reseed),
                                                stats_);
    }

  private:
    std::unique_ptr<pythia::wl::Workload> inner_;
    CallStats& stats_;
};

/**
 * Spans at job, session and replay granularity: an id, the id of the
 * span that caused it (0 = root), a name, host start/end in ns since
 * the log was created, and a free-form detail. Kept in memory; written
 * as one JSON document by writeJson(). Thread-safe.
 */
class SpanLog
{
  public:
    SpanLog() : t0_(Clock::now()) {}

    /** Open a span; returns its id. */
    std::uint64_t begin(const std::string& name, std::uint64_t parent,
                        std::string detail = "");

    /** Close span @p id. */
    void end(std::uint64_t id);

    std::size_t size() const;

    /** Write every span as JSON; false on I/O failure. */
    bool writeJson(const std::string& path) const;

  private:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::string name;
        std::string detail;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };

    Clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< spans_[id - 1]
};

} // namespace perfbench
