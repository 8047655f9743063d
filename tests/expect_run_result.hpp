/**
 * @file
 * The one RunResult comparison the suites share: every field, exactly
 * (no tolerance — doubles from the same deterministic simulation must
 * match to the bit).
 */
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "harness/session.hpp"
#include "snapshot/codec.hpp"

namespace pythia {

/**
 * Compare @p a and @p b field by field: each scalar counter by name
 * (sim::kRunCounters), the vector counters, the derived views and the
 * utilization sample. Then compare their writeRunResult() bytes, so a
 * field the codec carries cannot be left out of the comparison.
 */
inline void
expectSameRunResult(const sim::RunResult& a, const sim::RunResult& b,
                    const std::string& what = "")
{
    for (const sim::RunCounter& c : sim::kRunCounters)
        EXPECT_EQ(a.*c.field, b.*c.field) << what << ": " << c.name;
    EXPECT_EQ(a.core_cycles, b.core_cycles) << what;
    EXPECT_EQ(a.dram_bucket_epochs, b.dram_bucket_epochs) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.ipc_geomean, b.ipc_geomean) << what;
    EXPECT_EQ(a.dram_buckets, b.dram_buckets) << what;
    EXPECT_EQ(a.dram_utilization, b.dram_utilization) << what;

    snap::Writer wa;
    snap::Writer wb;
    harness::writeRunResult(wa, a);
    harness::writeRunResult(wb, b);
    EXPECT_EQ(wa.buffer(), wb.buffer())
        << what << ": writeRunResult bytes differ";
}

} // namespace pythia
