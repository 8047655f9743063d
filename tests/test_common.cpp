/**
 * @file
 * Unit tests for the common utilities: address helpers, RNG determinism,
 * hashing, stats, tables, config parsing, the frame transport and the
 * event loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "../bench/bench_common.hpp"
#include "common/config.hpp"
#include "common/event_loop.hpp"
#include "common/frame.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace pythia {
namespace {

// ---------------------------------------------------------------------- types

TEST(Types, BlockAddrDropsOffsetBits)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockAddr(4096), 64u);
}

TEST(Types, BlockBaseAlignsDown)
{
    EXPECT_EQ(blockBase(0), 0u);
    EXPECT_EQ(blockBase(65), 64u);
    EXPECT_EQ(blockBase(127), 64u);
}

TEST(Types, PageIdAndOffset)
{
    EXPECT_EQ(pageId(0), 0u);
    EXPECT_EQ(pageId(4095), 0u);
    EXPECT_EQ(pageId(4096), 1u);
    EXPECT_EQ(pageOffset(0), 0u);
    EXPECT_EQ(pageOffset(64), 1u);
    EXPECT_EQ(pageOffset(4095), 63u);
    EXPECT_EQ(pageOffset(4096), 0u);
}

TEST(Types, PageIdOfBlockMatchesByteVersion)
{
    for (Addr byte : {0ull, 4096ull, 1ull << 20, 123456789ull})
        EXPECT_EQ(pageIdOfBlock(blockAddr(byte)), pageId(byte));
}

TEST(Types, SamePageAfterOffsetWithinPage)
{
    // Block 0 of a page: offsets up to +63 stay inside.
    const Addr block = blockAddr(1ull << 20);
    EXPECT_TRUE(sameePageAfterOffset(block, 63));
    EXPECT_FALSE(sameePageAfterOffset(block, 64));
    EXPECT_FALSE(sameePageAfterOffset(block, -1));
}

TEST(Types, SamePageAfterOffsetMidPage)
{
    const Addr block = blockAddr(1ull << 20) + 32;
    EXPECT_TRUE(sameePageAfterOffset(block, 31));
    EXPECT_FALSE(sameePageAfterOffset(block, 32));
    EXPECT_TRUE(sameePageAfterOffset(block, -32));
    EXPECT_FALSE(sameePageAfterOffset(block, -33));
}

TEST(Types, SamePageAfterOffsetNearZero)
{
    EXPECT_FALSE(sameePageAfterOffset(0, -1));
    EXPECT_TRUE(sameePageAfterOffset(1, -1));
}

// ----------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next64() == b.next64());
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripResumesStreamExactly)
{
    // Capture mid-stream, keep drawing on the original, then restore a
    // fresh generator from the captured state: both must produce the
    // identical remainder of the stream — the property the snapshot
    // subsystem's RNG serialization rests on.
    Rng a(42);
    for (int i = 0; i < 1000; ++i)
        (void)a.next64();
    const RngState st = a.state();

    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 1000; ++i)
        expect.push_back(a.next64());

    Rng b(7); // different position and seed; setState must erase both
    b.setState(st);
    EXPECT_EQ(b.state(), st);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(b.next64(), expect[static_cast<std::size_t>(i)]);
}

TEST(Rng, SetStateRejectsAllZeroState)
{
    Rng r(1);
    EXPECT_THROW(r.setState(RngState{0, 0}), std::invalid_argument);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequencyApproximatesP)
{
    Rng r(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, HeavyTailBounded)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextHeavyTail(64);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 64u);
    }
}

// ------------------------------------------------------------------- hashing

TEST(Hashing, Mix64Avalanches)
{
    // Flipping one input bit should flip roughly half the output bits.
    const std::uint64_t h0 = mix64(0x1234567890ABCDEFull);
    const std::uint64_t h1 = mix64(0x1234567890ABCDEEull);
    const int diff = __builtin_popcountll(h0 ^ h1);
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}

TEST(Hashing, FoldedXorWidth)
{
    for (unsigned bits : {4u, 7u, 12u, 16u}) {
        const std::uint32_t v = foldedXor(0xDEADBEEFCAFEF00Dull, bits);
        EXPECT_LT(v, 1u << bits);
    }
}

TEST(Hashing, PlaneIndexWithinRange)
{
    for (std::uint64_t f = 0; f < 1000; ++f)
        EXPECT_LT(planeIndex(f, 3, 7), 128u);
}

TEST(Hashing, DistinctPlaneShiftsDecorrelate)
{
    // Two planes should disagree on the row for most feature values.
    int same = 0;
    for (std::uint64_t f = 0; f < 1000; ++f)
        same += (planeIndex(f, 3, 7) == planeIndex(f, 11, 7));
    EXPECT_LT(same, 100);
}

TEST(Hashing, PlaneIndexSpreads)
{
    std::set<std::uint32_t> rows;
    for (std::uint64_t f = 0; f < 512; ++f)
        rows.insert(planeIndex(f, 3, 7));
    EXPECT_GT(rows.size(), 100u); // most of the 128 rows are used
}

// --------------------------------------------------------------------- stats

TEST(Stats, CountersAccumulate)
{
    StatGroup g("test");
    g.inc("a");
    g.inc("a", 4);
    EXPECT_EQ(g.counter("a"), 5u);
    EXPECT_EQ(g.counter("missing"), 0u);
}

TEST(Stats, ValuesSetAndReset)
{
    StatGroup g;
    g.set("ipc", 1.25);
    EXPECT_DOUBLE_EQ(g.value("ipc"), 1.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value("ipc"), 0.0);
    EXPECT_TRUE(g.has("ipc")); // names survive reset
}

TEST(Stats, DumpContainsPrefix)
{
    StatGroup g("l2");
    g.inc("hits", 3);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("l2.hits 3"), std::string::npos);
}

// --------------------------------------------------------------------- table

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.034, 1), "+3.4%");
    EXPECT_EQ(Table::pct(-0.021, 1), "-2.1%");
}

TEST(Table, CellsRoundTrip)
{
    Table t("x");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"3", "4"});
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cell(1, 0), "3");
}

TEST(Table, CsvWritten)
{
    Table t("csv");
    t.setHeader({"x"});
    t.addRow({"42"});
    const std::string path = "/tmp/pythia_test_table.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "x\n");
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(Table, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

// -------------------------------------------------------------------- config

TEST(Config, TypedAccessors)
{
    Config c;
    c.set("s", "hello");
    c.setInt("i", -7);
    c.setDouble("d", 0.5);
    c.set("b", "true");
    EXPECT_EQ(c.getString("s"), "hello");
    EXPECT_EQ(c.getInt("i"), -7);
    EXPECT_DOUBLE_EQ(c.getDouble("d"), 0.5);
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_EQ(c.getInt("missing", 9), 9);
}

TEST(Config, RejectsMalformedValues)
{
    Config c;
    c.set("i", "12x");
    EXPECT_THROW(c.getInt("i"), std::invalid_argument);
    c.set("b", "maybe");
    EXPECT_THROW(c.getBool("b"), std::invalid_argument);
}

TEST(Config, ParseArgs)
{
    const char* argv[] = {"prog", "workload=mcf", "mtps=600", "--junk"};
    Config c;
    const auto ignored = c.parseArgs(4, argv);
    EXPECT_EQ(c.getString("workload"), "mcf");
    EXPECT_EQ(c.getInt("mtps"), 600);
    ASSERT_EQ(ignored.size(), 1u);
    EXPECT_EQ(ignored[0], "--junk");
}

// ----------------------------------------------------------------- bench args

// parseBenchArgs terminates the bench with status 2 on contradictory
// knob combinations, so these run as death tests.
bench::BenchOptions
parseBench(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    return bench::parseBenchArgs(static_cast<int>(argv.size()),
                                 argv.data());
}

TEST(BenchArgs, WorkersWithThreadPoolJobsRejected)
{
    EXPECT_EXIT(parseBench({"workers=4", "jobs=8"}),
                ::testing::ExitedWithCode(2), "mutually exclusive");
}

TEST(BenchArgs, JournalWithoutWorkersRejected)
{
    EXPECT_EXIT(parseBench({"journal=sweep.journal"}),
                ::testing::ExitedWithCode(2), "requires workers=");
}

TEST(BenchArgs, WorkersAloneAndWithExplicitSingleJobAccepted)
{
    const bench::BenchOptions a = parseBench({"workers=4"});
    EXPECT_EQ(a.workers, 4u);
    EXPECT_EQ(a.jobs, 0u);
    // jobs=1 is not contradictory: one in-process runner per worker.
    const bench::BenchOptions b = parseBench({"workers=2", "jobs=1"});
    EXPECT_EQ(b.workers, 2u);
    EXPECT_EQ(b.jobs, 1u);
}

// -------------------------------------------------------------- framing

std::vector<std::uint8_t>
frameBytes(std::uint32_t len, const std::vector<std::uint8_t>& payload)
{
    const FrameHeader h = encodeFrameHeader(len);
    std::vector<std::uint8_t> out(h.size() + payload.size());
    std::copy(h.begin(), h.end(), out.begin());
    std::copy(payload.begin(), payload.end(), out.begin() + h.size());
    return out;
}

/** The read end of a socketpair carrying @p stream, then EOF. Streams
 *  that fit the socket buffer are written before the first read, so
 *  they arrive in one read(); larger ones come from a writer thread. */
class StreamFeed
{
  public:
    explicit StreamFeed(std::vector<std::uint8_t> stream)
        : stream_(std::move(stream))
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
        if (stream_.size() <= 4096)
            writeAndClose();
        else
            writer_ = std::thread([this] { writeAndClose(); });
    }
    ~StreamFeed()
    {
        if (writer_.joinable())
            writer_.join();
        ::close(fds_[0]);
    }
    int fd() const { return fds_[0]; }

  private:
    void writeAndClose()
    {
        EXPECT_TRUE(writeAll(fds_[1], stream_.data(), stream_.size()));
        ::close(fds_[1]);
    }

    std::vector<std::uint8_t> stream_;
    int fds_[2] = {-1, -1};
    std::thread writer_;
};

TEST(Frame, ReadersAgreeOnHostileAndPartialStreams)
{
    enum End
    {
        kCleanEof, ///< EOF at a frame boundary
        kTruncated, ///< EOF inside a header or payload
        kBadLength, ///< zero or above the cap: hostile input
    };
    struct Case
    {
        const char* name;
        std::vector<std::uint8_t> stream;
        std::vector<std::vector<std::uint8_t>> frames; ///< whole frames
        End end;
    };
    const std::vector<std::uint8_t> at_cap(kMaxFramePayload, 0x5a);
    const std::vector<Case> cases = {
        {"empty stream", {}, {}, kCleanEof},
        {"zero length", frameBytes(0, {}), {}, kBadLength},
        {"one past the cap", frameBytes(kMaxFramePayload + 1, {}), {},
         kBadLength},
        {"exactly at the cap", frameBytes(kMaxFramePayload, at_cap),
         {at_cap}, kCleanEof},
        {"two frames in one read",
         {1, 0, 0, 0, 'a', 2, 0, 0, 0, 'b', 'c'},
         {{'a'}, {'b', 'c'}},
         kCleanEof},
        // A partial frame is not an error for the accumulator — it is
        // "keep reading". Only EOF makes it a truncation.
        {"partial header", {5, 0}, {}, kTruncated},
        {"partial payload", {5, 0, 0, 0, 1, 2}, {}, kTruncated},
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);

        // Blocking readFrame.
        {
            StreamFeed feed(c.stream);
            for (const auto& want : c.frames) {
                const auto got = readFrame(feed.fd());
                ASSERT_TRUE(got.has_value());
                EXPECT_TRUE(*got == want);
            }
            if (c.end == kCleanEof)
                EXPECT_FALSE(readFrame(feed.fd()).has_value());
            else
                EXPECT_THROW(readFrame(feed.fd()), FrameError);
        }

        // Non-blocking accumulator, fed until EOF.
        {
            StreamFeed feed(c.stream);
            FrameReader in;
            std::vector<std::vector<std::uint8_t>> got;
            std::size_t fills = 0;
            bool threw = false;
            try {
                for (bool open = true; open;) {
                    open = in.fill(feed.fd());
                    ++fills;
                    while (auto frame = in.next())
                        got.push_back(std::move(*frame));
                }
            } catch (const FrameError&) {
                threw = true;
            }
            EXPECT_EQ(threw, c.end == kBadLength);
            EXPECT_TRUE(got == c.frames);
            if (!threw && !c.stream.empty() && c.stream.size() <= 4096) {
                EXPECT_EQ(fills, 2u) << "one read for the bytes, one "
                                        "for the EOF";
            }
        }
    }
}

TEST(Frame, WriteFrameRejectsEmptyAndOversizedPayloads)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    EXPECT_THROW(writeFrame(sv[0], {}), FrameError);
    EXPECT_THROW(
        writeFrame(sv[0], std::vector<std::uint8_t>(kMaxFramePayload + 1)),
        FrameError);
    EXPECT_TRUE(writeFrame(sv[0], {7}));
    ::close(sv[0]);
    const auto got = readFrame(sv[1]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, std::vector<std::uint8_t>{7});
    EXPECT_FALSE(readFrame(sv[1]).has_value());
    ::close(sv[1]);
}

// ----------------------------------------------------------- event loop

TEST(EventLoop, SignalInterruptedWaitReturnsZero)
{
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask); // no SA_RESTART: epoll_wait fails EINTR
    ASSERT_EQ(::sigaction(SIGALRM, &sa, &old), 0);
    itimerval timer = {};
    timer.it_value.tv_usec = 20'000;
    ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, nullptr), 0);

    EventLoop loop;
    std::vector<IoEvent> events;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(loop.wait(events, 10'000), 0u);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5))
        << "the signal did not interrupt the wait";
    EXPECT_TRUE(events.empty());
    ::sigaction(SIGALRM, &old, nullptr);
}

TEST(EventLoop, WaitFailureThrows)
{
    // The loop's epoll fd takes the lowest free descriptor; replacing
    // it with a pipe makes epoll_wait fail with EINVAL, an error that
    // must surface rather than read as a timeout.
    const int lowest = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(lowest, 0);
    ::close(lowest);
    EventLoop loop;
    char target[64] = {};
    ASSERT_GT(::readlink(("/proc/self/fd/" + std::to_string(lowest)).c_str(),
                         target, sizeof target - 1),
              0);
    ASSERT_EQ(std::string(target), "anon_inode:[eventpoll]");
    int p[2];
    ASSERT_EQ(::pipe(p), 0);
    ASSERT_EQ(::dup2(p[0], lowest), lowest);
    std::vector<IoEvent> events;
    EXPECT_THROW(loop.wait(events, 0), std::system_error);
    ::close(p[0]);
    ::close(p[1]);
}

} // namespace
} // namespace pythia
