/**
 * @file
 * Self-tests of the benchmark's own machinery: the tracing decorators
 * forward every hook, the nearest-rank p90 rule, and failure
 * accounting for refused and failed replays (against an in-process
 * daemon).
 */
#include <gtest/gtest.h>

#include <filesystem>

#include "harness/runner.hpp"
#include "layers.hpp"
#include "serve.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/suites.hpp"

using namespace perfbench;
namespace sim = pythia::sim;
namespace wl = pythia::wl;

namespace {

/** Records every hook it receives. */
class FakePrefetcher : public sim::PrefetcherApi
{
  public:
    void train(const sim::PrefetchAccess& a,
               std::vector<sim::PrefetchRequest>& out) override
    {
        log.push_back("train");
        out.push_back({a.block + 1, 2});
        out.push_back({a.block + 2, 3});
    }
    void onFill(pythia::Addr b, pythia::Cycle at) override
    {
        log.push_back("fill " + std::to_string(b) + " " +
                      std::to_string(at));
    }
    void onPrefetchUsed(pythia::Addr b, bool timely) override
    {
        log.push_back("used " + std::to_string(b) + " " +
                      std::to_string(timely));
    }
    void onPrefetchEvicted(pythia::Addr b, bool used) override
    {
        log.push_back("evicted " + std::to_string(b) + " " +
                      std::to_string(used));
    }
    void setBandwidthInfo(const sim::BandwidthInfo* bw) override
    {
        log.push_back(bw ? "bw" : "bw null");
    }
    const std::string& name() const override { return name_; }
    std::size_t storageBytes() const override { return 4321; }

    std::vector<std::string> log;

  private:
    std::string name_ = "fake";
};

class FakeBandwidth : public sim::BandwidthInfo
{
  public:
    double utilization() const override { return 0.5; }
    bool highUsage() const override { return false; }
};

/** Counts its records; clone() reports the reseed it was given. */
class FakeWorkload : public wl::Workload
{
  public:
    explicit FakeWorkload(std::uint64_t seed = 7) : seed_(seed) {}
    wl::TraceRecord next() override
    {
        wl::TraceRecord r;
        r.addr = seed_ * 1000 + pos_++;
        return r;
    }
    void reset() override { pos_ = 0; }
    const std::string& name() const override { return name_; }
    std::unique_ptr<wl::Workload> clone(std::uint64_t reseed) const override
    {
        return std::make_unique<FakeWorkload>(reseed ? reseed : seed_);
    }

  private:
    std::uint64_t seed_;
    std::uint64_t pos_ = 0;
    std::string name_ = "fake-workload";
};

} // namespace

TEST(Decorators, PrefetcherForwardsEveryHook)
{
    auto inner = std::make_unique<FakePrefetcher>();
    FakePrefetcher* raw = inner.get();
    PrefetcherStats stats;
    TracedPrefetcher traced(std::move(inner), stats);
    FakeBandwidth bw;

    traced.setBandwidthInfo(&bw);
    std::vector<sim::PrefetchRequest> out = {{99, 2}};
    sim::PrefetchAccess access;
    access.block = 10;
    traced.train(access, out);
    traced.onFill(11, 500);
    traced.onPrefetchUsed(11, true);
    traced.onPrefetchEvicted(12, false);

    EXPECT_EQ(raw->log,
              (std::vector<std::string>{"bw", "train", "fill 11 500",
                                        "used 11 1", "evicted 12 0"}));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1].block, 11u);
    EXPECT_EQ(out[2].fill_level, 3);
    EXPECT_EQ(traced.name(), "fake");
    EXPECT_EQ(traced.storageBytes(), 4321u);
    EXPECT_EQ(stats.train.calls, 1u);
    EXPECT_EQ(stats.candidates, 2u); // only what train() appended
    EXPECT_EQ(stats.callbacks.calls, 3u);
}

TEST(Decorators, WorkloadForwardsNextResetAndClone)
{
    CallStats stats;
    TracedWorkload traced(std::make_unique<FakeWorkload>(7), stats);
    EXPECT_EQ(traced.name(), "fake-workload");
    EXPECT_EQ(traced.next().addr, 7000u);
    EXPECT_EQ(traced.next().addr, 7001u);
    traced.reset();
    EXPECT_EQ(traced.next().addr, 7000u);

    auto same = traced.clone(0);
    auto reseeded = traced.clone(9);
    EXPECT_NE(dynamic_cast<TracedWorkload*>(same.get()), nullptr);
    EXPECT_EQ(same->next().addr, 7000u);
    EXPECT_EQ(reseeded->next().addr, 9000u);
    // Clones share the accumulator: 3 + 2 calls.
    EXPECT_EQ(stats.calls, 5u);
}

TEST(Decorators, TracedSimulationIsBitIdentical)
{
    pythia::harness::ExperimentSpec spec;
    spec.workload = "Ligra-PageRank";
    spec.prefetcher = "pythia";
    spec.warmup_instrs = 2000;
    spec.sim_instrs = 6000;
    LayerTotals totals;
    SpanLog spans;
    const auto r = traceSimulation(spec, totals, spans, 0);
    EXPECT_TRUE(sameResult(r, pythia::harness::simulate(spec)));
    EXPECT_EQ(totals.mismatches, 0u);
    EXPECT_GT(totals.workload.calls, 0u);
    EXPECT_GT(totals.prefetchers["pythia"].train.calls, 0u);
    EXPECT_EQ(spans.size(), 4u); // untraced, traced, warmup, measure
}

TEST(Stats, NearestRankP90)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    const LatencySummary s = summarize(v, 0, 0);
    EXPECT_EQ(s.samples, 100u);
    EXPECT_EQ(s.p50, 50);
    EXPECT_EQ(s.p90, 90);
    EXPECT_EQ(s.above_p90, 10u);
    EXPECT_TRUE(s.p90Resolved());

    v.pop_back(); // 99 samples: rank 90 (value 90), 9 above it
    const LatencySummary t = summarize(v, 0, 0);
    EXPECT_EQ(t.p90, 90);
    EXPECT_EQ(t.above_p90, 9u);
    EXPECT_FALSE(t.p90Resolved());

    const LatencySummary one = summarize({3.5}, 0, 0);
    EXPECT_EQ(one.p50, 3.5);
    EXPECT_EQ(one.p90, 3.5);
    EXPECT_EQ(one.above_p90, 0u);
}

TEST(Stats, Median)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, SetupFigureIsLowNearestRank)
{
    EXPECT_EQ(setupFigure({}), 0.0);
    std::vector<double> v;
    for (int i = 20; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(setupFigure(v), 2.0); // rank ceil(0.1 * 20) = 2
    v.push_back(1000.0);            // one slow repetition moves nothing
    EXPECT_EQ(setupFigure(v), 3.0); // rank ceil(2.1) = 3
}

TEST(Stats, FailedOperationsMissEveryLatency)
{
    // 80 fast completions and 20 failures: the failures sit at the
    // timed-phase length, so they own the tail and the p90.
    std::vector<double> v(80, 0.01);
    const LatencySummary s = summarize(v, 20, 30.0);
    EXPECT_EQ(s.samples, 100u);
    EXPECT_EQ(s.p50, 0.01);
    EXPECT_EQ(s.p90, 30.0);
    OpCount ops{100, 20};
    EXPECT_DOUBLE_EQ(ops.failedFrac(), 0.2);
    EXPECT_EQ(OpCount{}.failedFrac(), 0.0);
}

TEST(Accounting, RefusedAndFailedReplaysAreFailed)
{
    namespace fs = std::filesystem;
    const std::string dir = ".bench_out/selftest-serve";
    fs::remove_all(dir);
    fs::create_directories(dir);
    pythia::service::ServeOptions opt;
    opt.unix_path = dir + "/s.sock";
    opt.state_dir = dir + "/state";
    pythia::service::ServeServer server(opt);
    server.start();

    std::vector<TenantCase> cases(2);
    cases[0].spec.workload = "Ligra-PageRank";
    cases[0].spec.prefetcher = "pythia";
    cases[0].spec.warmup_instrs = 2000;
    cases[0].spec.sim_instrs = 4000;
    cases[0].window = 2000;
    {
        auto w = pythia::harness::workloadsFor(cases[0].spec);
        for (std::uint64_t i = 0;
             i < pythia::service::recordBudgetFor(cases[0].spec); ++i)
            cases[0].records.push_back(w[0]->next());
        cases[0].reference_final = pythia::harness::simulate(cases[0].spec);
    }
    // Multi-core specs are refused by the daemon (kErrSpec).
    cases[1] = cases[0];
    cases[1].spec.num_cores = 2;

    double wall = 0;
    const auto replays = closedLoop(
        server.boundAddress(), cases,
        [](std::size_t r) -> std::size_t { return r % 2; }, 2, 0.0, 6,
        nullptr, wall);
    server.requestDrain();
    server.join();

    ASSERT_GE(replays.size(), 6u);
    std::vector<Replay> with_broken = replays;
    Replay lost; // a replay that ended without RunEnd
    lost.case_index = 0;
    with_broken.push_back(lost);

    // The CSV digest is not known here, so adopt the first completed
    // replay's: every completed replay of case 0 must match it.
    for (const Replay& r : replays)
        if (r.ok) {
            cases[0].reference_csv = r.csv;
            break;
        }
    RunReport report;
    tallyReplays(with_broken, cases, report);
    std::size_t refused = 0;
    for (const Replay& r : replays)
        refused += r.case_index == 1;
    EXPECT_GE(refused, 3u);
    for (const Replay& r : replays)
        EXPECT_EQ(r.ok, r.case_index == 0);
    EXPECT_EQ(report.ops.attempted, replays.size() + 1);
    EXPECT_EQ(report.ops.failed, refused + 1);
    EXPECT_TRUE(report.correct);
    fs::remove_all(dir);
}
