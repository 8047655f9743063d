/**
 * @file
 * Snapshot restore→advance golden gate (ctest label: golden).
 *
 * Over the same eight-cell grid the golden-metrics suite pins, this
 * suite checks the snapshot subsystem's core contract: a session
 * restored from a post-warmup snapshot and advanced to completion is
 * bit-identical — every RunResult field, doubles compared with == —
 * to the session that ran straight through. It also gates the Runner
 * warm-state cache end to end: a warm-started sweep cell reproduces
 * the cold cell's Outcome byte-identically while skipping the warmup
 * simulation.
 *
 * OneCell is a cheap standalone version of the grid test
 * (--gtest_filter='*OneCell*') for the sanitizer CI job, where the
 * full grid would be too slow.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "expect_run_result.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/session.hpp"
#include "snapshot/snapshot.hpp"

namespace pythia {
namespace {

namespace fs = std::filesystem;

struct GridCell
{
    const char* workload;
    const char* prefetcher;
    std::uint32_t cores;
};

/** The golden-metrics grid (tests/test_golden_metrics.cpp), verbatim:
 *  restore→advance must hold for every cell the goldens pin. */
const GridCell kGrid[] = {
    {"462.libquantum-1343B", "pythia", 1},
    {"459.GemsFDTD-765B", "spp", 1},
    {"482.sphinx3-417B", "bingo", 1},
    {"429.mcf-184B", "stride", 1},
    {"Ligra-CC", "stride+spp", 1},
    {"Ligra-PageRank", "pythia", 4},
    {"PARSEC-Canneal", "spp", 4},
    {"Cloudsuite-Cassandra", "bingo", 4},
};

harness::ExperimentSpec
specFor(const GridCell& cell)
{
    return harness::Experiment(cell.workload)
        .l2(cell.prefetcher)
        .cores(cell.cores)
        .warmup(20'000)
        .measure(50'000)
        .spec();
}

std::string
cellName(const GridCell& cell)
{
    return std::string(cell.workload) + " x " + cell.prefetcher + " x " +
           std::to_string(cell.cores) + "c";
}

/** Snapshot after warmup, run straight through, then resume from the
 *  snapshot and run again: both results must match bit-exactly. */
void
checkRestoreAdvance(const GridCell& cell)
{
    const harness::ExperimentSpec spec = specFor(cell);
    const std::string path =
        (fs::path(::testing::TempDir()) /
         ("golden-" + std::to_string(snap::fnv1a(cellName(cell))) +
          ".snap"))
            .string();

    harness::SimSession cold(spec);
    cold.runWarmup();
    cold.snapshotTo(path);
    const sim::RunResult straight = cold.runToCompletion();

    harness::SimSession resumed =
        harness::SimSession::resumeFrom(spec, path);
    const sim::RunResult replayed = resumed.runToCompletion();
    expectSameRunResult(straight, replayed, cellName(cell));
    fs::remove(path);
}

TEST(SnapshotGolden, OneCellRestoreAdvanceIsBitExact)
{
    checkRestoreAdvance(kGrid[0]);
}

TEST(SnapshotGolden, FullGridRestoreAdvanceIsBitExact)
{
    // Cell 0 is OneCell's; still run it here so a full-suite pass
    // covers the grid without depending on test ordering or filters.
    for (const GridCell& cell : kGrid)
        checkRestoreAdvance(cell);
}

TEST(SnapshotGolden, WarmSweepCellMatchesColdOutcome)
{
    // End-to-end warm-state cache gate on a multi-core Pythia cell:
    // a warm-started evaluation must reproduce the cold Outcome
    // byte-identically while skipping both warmups (run + baseline).
    const harness::ExperimentSpec spec = specFor(kGrid[5]);
    const std::string dir =
        (fs::path(::testing::TempDir()) / "golden-warm-cache").string();
    fs::remove_all(dir);
    fs::create_directories(dir);

    harness::Runner cold;
    cold.setSnapshotDir(dir);
    const harness::Runner::Outcome cold_out = cold.evaluate(spec);
    EXPECT_EQ(cold.warmHits(), 0u);
    EXPECT_EQ(cold.warmMisses(), 2u);

    harness::Runner warm;
    warm.setSnapshotDir(dir);
    const harness::Runner::Outcome warm_out = warm.evaluate(spec);
    EXPECT_EQ(warm.warmHits(), 2u);
    EXPECT_EQ(warm.warmMisses(), 0u);

    expectSameRunResult(cold_out.run, warm_out.run, "warm sweep run");
    expectSameRunResult(cold_out.baseline, warm_out.baseline,
                     "warm sweep baseline");
    EXPECT_EQ(cold_out.metrics.speedup, warm_out.metrics.speedup);
    EXPECT_EQ(cold_out.metrics.coverage, warm_out.metrics.coverage);
    EXPECT_EQ(cold_out.metrics.accuracy, warm_out.metrics.accuracy);
    fs::remove_all(dir);
}

} // namespace
} // namespace pythia
