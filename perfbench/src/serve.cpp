/**
 * @file
 * serve_mixed: a fresh pythia_serve daemon per run (empty state_dir,
 * warm pool at its default) on a Unix socket, driven closed-loop by
 * one client connection per pool slot. Most tenants are short (the
 * serve_client default sizes), where wire, open and flush dominate;
 * every fourth is long, where the warm pool skips a real warmup.
 */
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "harness/timeseries.hpp"
#include "layers.hpp"
#include "serve.hpp"
#include "service/client.hpp"
#include "service/wire.hpp"
#include "snapshot/codec.hpp"

extern char** environ;

namespace perfbench {

namespace harness = pythia::harness;
namespace service = pythia::service;
namespace fs = std::filesystem;

namespace {

const std::vector<std::string> kShortWorkloads = {
    "470.lbm-164B", "602.gcc_s-734B", "Ligra-PageRank",
    "Cloudsuite-Cassandra"};
const std::vector<std::string> kLongWorkloads = {"459.GemsFDTD-765B",
                                                 "PARSEC-Canneal"};
/** Every kLongEvery-th replay is a long tenant: 25% long keeps the
 *  p50 inside the short class and the p90 inside the long one. */
constexpr std::size_t kLongEvery = 4;

std::vector<TenantCase>
tenantCases(std::uint64_t seed)
{
    std::vector<TenantCase> cases;
    auto add = [&](const std::string& w, bool long_tenant) {
        TenantCase c;
        c.spec.workload = w;
        c.spec.prefetcher = "pythia";
        c.spec.warmup_instrs = long_tenant ? 60'000 : 2'000;
        c.spec.sim_instrs = long_tenant ? 150'000 : 6'000;
        c.spec.workload_seed = deriveSeed(seed, 5000 + cases.size());
        c.window = long_tenant ? 25'000 : 2'000;
        c.long_tenant = long_tenant;
        cases.push_back(std::move(c));
    };
    for (const auto& w : kShortWorkloads)
        add(w, false);
    for (const auto& w : kLongWorkloads)
        add(w, true);
    return cases;
}

/** Case index of replay @p r. */
std::size_t
caseFor(std::size_t r)
{
    const std::size_t n_short = kShortWorkloads.size();
    if (r % kLongEvery == kLongEvery - 1)
        return n_short + (r / kLongEvery) % kLongWorkloads.size();
    return (r - r / kLongEvery) % n_short;
}

/** Exactly the records the offline SimSession consumes. */
void
captureRecords(TenantCase& c)
{
    auto workloads = harness::workloadsFor(c.spec);
    const std::uint64_t budget = service::recordBudgetFor(c.spec);
    c.records.clear();
    c.records.reserve(budget);
    for (std::uint64_t i = 0; i < budget; ++i)
        c.records.push_back(workloads[0]->next());
}

std::uint64_t
csvDigest(const harness::TimeSeries& series)
{
    std::ostringstream os;
    series.writeCsv(os);
    return pythia::snap::fnv1a(os.str());
}

/** A pythia_serve child process on a Unix socket. */
class Daemon
{
  public:
    Daemon(const std::string& exe_dir, const std::string& dir)
        : dir_(dir), sock_(dir + "/serve.sock")
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_ + "/state");
        int out[2];
        if (pipe(out) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        posix_spawn_file_actions_addclose(&fa, out[1]);
        const std::string exe = exe_dir + "/pythia_serve";
        std::vector<std::string> args = {
            exe, "listen=unix:" + sock_, "state_dir=" + dir_ + "/state",
            "quiet=1"};
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        close(out[1]);
        out_ = out[0];
        if (rc != 0) {
            close(out_);
            throw std::runtime_error("cannot spawn " + exe);
        }
        const std::string line = readLine(10'000);
        if (line.rfind("listening on ", 0) != 0) {
            stop();
            throw std::runtime_error("pythia_serve did not start: '" +
                                     line + "'");
        }
        address_ = line.substr(13);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    const std::string& address() const { return address_; }

    /** SIGTERM (graceful drain), reap, clean up. Returns the daemon's
     *  summary line; sets exit status and peak RSS. Idempotent. */
    std::string stop()
    {
        if (pid_ <= 0)
            return summary_;
        kill(pid_, SIGTERM);
        summary_ = readLine(30'000);
        int status = 0;
        rusage ru{};
        wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        close(out_);
        exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
        std::error_code ec;
        fs::remove_all(dir_, ec);
        return summary_;
    }

    bool exitOk() const { return exit_ok_; }
    double peakRssMb() const { return peak_rss_mb_; }

  private:
    /** Next stdout line (without newline); "" on EOF or timeout. */
    std::string readLine(int timeout_ms)
    {
        std::string line;
        const auto t0 = Clock::now();
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            const int left =
                timeout_ms - static_cast<int>(secondsSince(t0) * 1000);
            pollfd p{out_, POLLIN, 0};
            if (left <= 0 || poll(&p, 1, left) <= 0)
                return line;
            char chunk[4096];
            const ssize_t n = read(out_, chunk, sizeof(chunk));
            if (n <= 0)
                return line;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    std::string dir_;
    std::string sock_;
    std::string address_;
    pid_t pid_ = -1;
    int out_ = -1;
    std::string buf_;
    std::string summary_;
    bool exit_ok_ = false;
    double peak_rss_mb_ = 0.0;
};

/** Warm hits/misses from the daemon's "... warm pool H hits / M
 *  misses" summary line; {-1, -1} when absent. */
std::pair<long, long>
parseWarm(const std::string& summary)
{
    const auto at = summary.find("warm pool ");
    if (at == std::string::npos)
        return {-1, -1};
    long hits = -1, misses = -1;
    std::istringstream is(summary.substr(at + 10));
    std::string word;
    is >> hits >> word >> word >> misses;
    return {hits, misses};
}

} // namespace

Replay
runReplay(const std::string& address, const TenantCase& c,
          const std::string& tenant, SpanLog* spans)
{
    Replay r;
    const std::uint64_t span =
        spans ? spans->begin("replay", 0, tenant + " " + c.spec.workload)
              : 0;
    const auto t0 = Clock::now();
    service::ServeClient client(address);
    const std::uint64_t open_span = spans ? spans->begin("open", span) : 0;
    const service::HelloAckMsg ack = client.open(tenant, c.spec, c.window);
    r.open_s = secondsSince(t0);
    if (spans)
        spans->end(open_span);
    const std::uint64_t stream_span =
        spans ? spans->begin("streamRun", span) : 0;
    auto progress = client.streamRun(c.records, ack.records_received);
    r.latency_s = secondsSince(t0);
    if (spans) {
        spans->end(stream_span);
        spans->end(span);
    }
    r.warm = ack.warm;
    r.records = progress.records_streamed;
    r.first_window_s =
        progress.window_gaps_s.empty() ? 0.0 : progress.window_gaps_s[0];
    r.csv = csvDigest(progress.series);
    r.ok = progress.final_result.has_value();
    if (r.ok)
        r.final_result = *progress.final_result;
    return r;
}

std::vector<Replay>
closedLoop(const std::string& address, const std::vector<TenantCase>& cases,
           std::size_t (*case_for)(std::size_t), unsigned clients,
           double seconds, std::size_t min_replays, SpanLog* spans,
           double& wall)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::vector<Replay> replays;
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < clients; ++t)
        threads.emplace_back([&] {
            for (;;) {
                const double el = secondsSince(t0);
                if (el >= kMaxTimedSeconds ||
                    (el >= seconds && next.load() >= min_replays))
                    return;
                const std::size_t r = next.fetch_add(1);
                Replay rep;
                try {
                    rep = runReplay(address, cases[case_for(r)],
                                    "t" + std::to_string(r), spans);
                } catch (const std::exception&) {
                    rep.ok = false;
                }
                rep.case_index = case_for(r);
                rep.done_s = secondsSince(t0);
                std::lock_guard<std::mutex> lock(mu);
                replays.push_back(std::move(rep));
            }
        });
    for (auto& th : threads)
        th.join();
    wall = secondsSince(t0);
    return replays;
}

void
tallyReplays(const std::vector<Replay>& replays,
             const std::vector<TenantCase>& cases, RunReport& report)
{
    std::size_t mismatched = 0;
    report.ops.attempted += replays.size();
    for (const Replay& r : replays) {
        if (!r.ok) {
            ++report.ops.failed;
            continue;
        }
        const TenantCase& c = cases.at(r.case_index);
        if (r.csv != c.reference_csv ||
            !sameResult(r.final_result, c.reference_final))
            ++mismatched;
    }
    if (mismatched)
        report.fail(std::to_string(mismatched) +
                    " replays streamed windows that differ from the "
                    "offline SimSession TimeSeries CSV");
}

namespace {

/** Offline references for every case (outside the timed phase). */
void
computeReferences(std::vector<TenantCase>& cases)
{
    for (TenantCase& c : cases) {
        harness::TimeSeries series;
        harness::SimSession session(c.spec);
        session.addObserver(&series);
        while (!session.done())
            session.advance(c.window);
        c.reference_csv = csvDigest(series);
        c.reference_final = session.cumulative();
    }
}

std::string
modelDigestNote(const std::vector<TenantCase>& cases)
{
    std::uint64_t d = pythia::snap::kFnvOffset;
    for (const TenantCase& c : cases)
        d = digestResult(c.reference_final, d);
    return "model digest " + hex64(d) + " over " +
           std::to_string(cases.size()) +
           " offline reference results (case order)";
}

/** Set-up: spec resolution, daemon start, trace-record capture. */
std::unique_ptr<Daemon>
setUp(RunContext& ctx, std::vector<TenantCase>& cases,
      std::vector<double>& setup_s)
{
    std::unique_ptr<Daemon> daemon;
    const auto loop_t0 = Clock::now();
    while (moreSetupReps(ctx, loop_t0, setup_s.size())) {
        if (daemon)
            daemon->stop();
        daemon.reset();
        const auto t0 = setup_s.empty() ? ctx.t_main : Clock::now();
        cases = tenantCases(ctx.seed);
        daemon = std::make_unique<Daemon>(ctx.exe_dir,
                                          ctx.out_dir + "/serve");
        for (TenantCase& c : cases)
            captureRecords(c);
        setup_s.push_back(secondsSince(t0));
    }
    return daemon;
}

void
checkDaemon(Daemon& daemon, const std::vector<Replay>& replays,
            RunReport& report)
{
    const std::string summary = daemon.stop();
    if (!daemon.exitOk())
        report.fail("pythia_serve did not drain and exit 0");
    long hits = 0, misses = 0;
    for (const Replay& r : replays)
        if (r.ok)
            ++(r.warm ? hits : misses);
    const auto [d_hits, d_misses] = parseWarm(summary);
    report.notes.push_back("warm pool: client saw " + std::to_string(hits) +
                           " hits / " + std::to_string(misses) +
                           " misses; daemon: " + summary);
    if (d_hits != hits || d_misses != misses)
        report.fail("daemon warm-pool counts disagree with the client's");
}

/** Completions per second, the median over consecutive groups of
 *  kRateGroup completed replays (failed replays complete nothing): a
 *  transient slowdown of the host moves fewer groups than half. */
double
medianRate(const std::vector<Replay>& replays, RunReport& report)
{
    constexpr std::size_t kRateGroup = 100;
    std::vector<double> done = {0.0};
    for (const Replay& r : replays)
        if (r.ok)
            done.push_back(r.done_s);
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    for (std::size_t i = kRateGroup; i < done.size(); i += kRateGroup)
        rates.push_back(static_cast<double>(kRateGroup) /
                        (done[i] - done[i - kRateGroup]));
    report.noteValues("rates per 100 completions (1/s)", rates);
    return median(rates);
}

void
timedServe(RunContext& ctx, RunReport& report)
{
    std::vector<double> setup_s;
    std::vector<TenantCase> cases;
    auto daemon = setUp(ctx, cases, setup_s);
    if (endSetupProbe(ctx, setup_s))
        return;

    double wall = 0;
    const auto replays =
        closedLoop(daemon->address(), cases, caseFor, ctx.parallelism,
                   ctx.seconds, kMinSamples, nullptr, wall);
    computeReferences(cases);
    report.notes.push_back(modelDigestNote(cases));
    tallyReplays(replays, cases, report);
    checkDaemon(*daemon, replays, report);
    const std::vector<double> probes = probeSetup(ctx);
    setup_s.insert(setup_s.end(), probes.begin(), probes.end());

    std::vector<double> lat;
    std::size_t n_long = 0;
    for (const Replay& r : replays)
        if (r.ok) {
            lat.push_back(r.latency_s);
            n_long += cases[r.case_index].long_tenant;
        }
    const LatencySummary s = summarize(lat, report.ops.failed, wall);
    report.notes.push_back(
        std::to_string(replays.size()) + " replays (" +
        std::to_string(n_long) + " long) from " +
        std::to_string(ctx.parallelism) +
        " closed-loop clients, " + fullDigits(wall) +
        " s timed; latency samples " + std::to_string(s.samples) + " (" +
        std::to_string(s.above_p90) + " above p90); failed_frac " +
        fullDigits(report.ops.failedFrac()));
    if (!s.p90Resolved())
        report.fail("fewer than 10 latency samples above p90");

    report.add("sims_per_s", medianRate(replays, report), "1/s");
    report.add("sim_p50_s", s.p50, "s");
    report.add("sim_p90_s", s.p90, "s");
    report.addSetup(setup_s);
    report.add("peak_rss_mb", selfPeakRssMb() + daemon->peakRssMb(), "MiB");
    report.add("ok_frac", 1.0 - report.ops.failedFrac(), "ratio");
}

/** Snapshot layer on @p c: cold warmup, save, restore (medians of 5),
 *  checking that a restored session finishes bit-identical to
 *  harness::simulate. */
void
snapshotLayer(const TenantCase& c, const std::string& prefix,
              RunContext& ctx, RunReport& report)
{
    constexpr int reps = 5;
    std::vector<double> warm, save, restore;
    std::size_t image = 0;
    for (int i = 0; i < reps; ++i) {
        const std::uint64_t span =
            ctx.spans.begin("snapshot", 0, c.spec.workload);
        harness::SimSession cold(c.spec);
        auto t0 = Clock::now();
        cold.runWarmup();
        warm.push_back(secondsSince(t0));
        t0 = Clock::now();
        std::vector<std::uint8_t> bytes = cold.snapshotBytes();
        save.push_back(secondsSince(t0));
        image = bytes.size();
        t0 = Clock::now();
        harness::SimSession resumed = harness::SimSession::resumeFromBytes(
            c.spec, std::move(bytes), {});
        restore.push_back(secondsSince(t0));
        ctx.spans.end(span);
        if (i == 0 && !sameResult(resumed.runToCompletion(),
                                  harness::simulate(c.spec)))
            report.fail("restored " + c.spec.workload +
                        " session differs from harness::simulate");
    }
    report.add(prefix + "warmup_ms", median(warm) * 1e3, "ms");
    report.add(prefix + "save_ms", median(save) * 1e3, "ms");
    report.add(prefix + "restore_ms", median(restore) * 1e3, "ms");
    if (prefix == "snapshot.")
        report.add("snapshot.image_kb", static_cast<double>(image) / 1024.0,
                   "KiB");
}

/** encodeAccess/decodeAccess ns per record over every captured record,
 *  in the client's 4096-record batches; checks the round trip. */
void
wireLayer(const std::vector<TenantCase>& cases, RunReport& report)
{
    constexpr std::size_t kBatch = 4096;
    std::uint64_t records = 0, enc_ns = 0, dec_ns = 0;
    bool round_trip = true;
    for (const TenantCase& c : cases)
        for (std::size_t at = 0; at < c.records.size(); at += kBatch) {
            const std::size_t n = std::min(kBatch, c.records.size() - at);
            auto t0 = Clock::now();
            const auto payload = service::encodeAccess(&c.records[at], n);
            enc_ns += nsSince(t0);
            t0 = Clock::now();
            const auto decoded = service::decodeAccess(payload);
            dec_ns += nsSince(t0);
            records += n;
            round_trip &= decoded.size() == n;
            for (std::size_t i = 0; round_trip && i < n; ++i) {
                const auto& a = decoded[i];
                const auto& b = c.records[at + i];
                round_trip = a.pc == b.pc && a.addr == b.addr &&
                             a.gap == b.gap && a.is_write == b.is_write &&
                             a.depends_on_prev == b.depends_on_prev;
            }
        }
    if (!round_trip)
        report.fail("decodeAccess(encodeAccess(x)) != x");
    report.add("service.wire.encode_access_ns",
               static_cast<double>(enc_ns) / static_cast<double>(records),
               "ns");
    report.add("service.wire.decode_access_ns",
               static_cast<double>(dec_ns) / static_cast<double>(records),
               "ns");
}

void
tracedServe(RunContext& ctx, RunReport& report)
{
    std::vector<double> setup_s;
    std::vector<TenantCase> cases;
    auto daemon = setUp(ctx, cases, setup_s);

    double wall = 0;
    const auto replays =
        closedLoop(daemon->address(), cases, caseFor, ctx.parallelism,
                   ctx.seconds, kMinSamples, &ctx.spans, wall);
    computeReferences(cases);
    report.notes.push_back(modelDigestNote(cases));
    tallyReplays(replays, cases, report);
    checkDaemon(*daemon, replays, report);

    std::vector<double> open, first, short_lat, long_lat;
    double records = 0, warm = 0, ok = 0;
    for (const Replay& r : replays) {
        if (!r.ok)
            continue;
        ++ok;
        open.push_back(r.open_s);
        first.push_back(r.first_window_s);
        (cases[r.case_index].long_tenant ? long_lat : short_lat)
            .push_back(r.latency_s);
        records += static_cast<double>(r.records);
        warm += r.warm;
    }
    ok = std::max(ok, 1.0);
    report.add("service.open_ms", median(open) * 1e3, "ms");
    report.add("service.first_window_ms", median(first) * 1e3, "ms");
    report.add("service.replay_short_ms", median(short_lat) * 1e3, "ms");
    report.add("service.replay_long_ms", median(long_lat) * 1e3, "ms");
    report.add("service.warm_hit_frac", warm / ok, "ratio");
    report.add("service.records_per_replay", records / ok, "count");
    wireLayer(cases, report);

    snapshotLayer(cases.front(), "snapshot.", ctx, report);
    snapshotLayer(cases.back(), "snapshot.long.", ctx, report);

    // Offline simulation layers and the model, over each distinct spec
    // and its no-prefetcher baseline.
    LayerTotals totals;
    std::vector<harness::Metrics> metrics;
    for (const TenantCase& c : cases) {
        const std::uint64_t span =
            ctx.spans.begin("job", 0, c.spec.workload);
        harness::ExperimentSpec base = c.spec;
        base.prefetcher = "none";
        const auto run = traceSimulation(c.spec, totals, ctx.spans, span);
        const auto baseline = traceSimulation(base, totals, ctx.spans, span);
        ctx.spans.end(span);
        if (!sameResult(run, c.reference_final))
            report.fail(c.spec.workload +
                        ": harness::simulate differs from the windowed "
                        "SimSession");
        metrics.push_back(harness::computeMetrics(run, baseline));
    }
    addModelMetrics(metrics, report);
    addLayerMetrics(totals, report);
}

} // namespace

void
runServeMixed(RunContext& ctx, RunReport& report)
{
    if (ctx.trace)
        tracedServe(ctx, report);
    else
        timedServe(ctx, report);
}

} // namespace perfbench
