/**
 * @file
 * Tests for the mixed-version execution extension (the paper's §4.1
 * future work): per-segment micro-profiling and selection.
 */
#include <gtest/gtest.h>

#include "dysel/mixed.hh"
#include "sim/gpu/gpu_device.hh"
#include "workloads/devices.hh"
#include "workloads/evaluate.hh"
#include "workloads/spmv_csr.hh"

using namespace dysel;
using namespace dysel::workloads;

namespace {

/** Run the workload with per-segment selection on a fresh device. */
runtime::MixedReport
runMixed(Workload &w, unsigned segments, sim::TimeNs *elapsed = nullptr)
{
    auto device = gpuFactory()();
    runtime::Runtime rt(*device);
    w.registerWith(rt);
    w.resetOutput();
    const sim::TimeNs start = device->now();
    // Profile segments once, reuse the partitioned selection for the
    // remaining iterations (the mixed analogue of the paper's
    // profiling activation flag).
    runtime::MixedReport report;
    const support::Status st = runtime::tryLaunchKernelMixed(
        rt, w.signature, w.units, w.args, segments, report);
    EXPECT_TRUE(st.ok()) << st.toString();
    for (unsigned it = 1; it < w.iterations; ++it) {
        const support::Status cached = runtime::tryLaunchKernelMixedCached(
            rt, w.signature, w.units, w.args, report);
        EXPECT_TRUE(cached.ok()) << cached.toString();
    }
    if (elapsed)
        *elapsed = device->now() - start;
    return report;
}

} // namespace

TEST(MixedVersion, AdaptsPerSegmentOnHeterogeneousMatrix)
{
    Workload w = makeSpmvCsrGpuHetero();
    w.iterations = 1;
    const auto report = runMixed(w, 8);
    EXPECT_TRUE(w.check());
    EXPECT_TRUE(report.heterogeneous());

    // First segments cover the random half (vector wins), last
    // segments the diagonal half (scalar wins).
    const int vector_idx = w.variantIndex("vector");
    const int scalar_idx = w.variantIndex("scalar");
    EXPECT_EQ(report.segmentSelection.front(), vector_idx);
    EXPECT_EQ(report.segmentSelection.back(), scalar_idx);
}

TEST(MixedVersion, BeatsEveryPureVariant)
{
    // The headline of the extension: on input whose structure varies
    // across the data, the mixed version outperforms the "oracle"
    // pure variant.
    Workload w = makeSpmvCsrGpuHetero();
    const auto oracle = runOracle(gpuFactory(), w);

    Workload w2 = makeSpmvCsrGpuHetero();
    sim::TimeNs mixed_elapsed = 0;
    const auto report = runMixed(w2, 8, &mixed_elapsed);
    EXPECT_TRUE(w2.check());
    EXPECT_TRUE(report.heterogeneous());
    EXPECT_LT(mixed_elapsed, oracle.best());
}

TEST(MixedVersion, HomogeneousInputSelectsUniformly)
{
    Workload w = makeSpmvCsrGpuInputDep(SpmvInput::Diagonal);
    w.iterations = 1;
    const auto report = runMixed(w, 4);
    EXPECT_TRUE(w.check());
    EXPECT_FALSE(report.heterogeneous());
    EXPECT_EQ(report.segmentSelection[0], w.variantIndex("scalar"));
}

TEST(MixedVersion, ShrinksSegmentsWhenTooSmall)
{
    Workload w = makeSpmvCsrGpuInputDep(SpmvInput::Random);
    w.iterations = 1;
    // Absurd segment count: the implementation must fall back to a
    // feasible partitioning rather than failing.
    const auto report = runMixed(w, 1024);
    EXPECT_TRUE(w.check());
    EXPECT_GE(report.segmentSelection.size(), 1u);
    EXPECT_LE(report.segmentSelection.size(), 1024u);
}

TEST(MixedVersion, CoversTheWholeWorkload)
{
    Workload w = makeSpmvCsrGpuHetero();
    w.iterations = 1;
    const auto report = runMixed(w, 8);
    EXPECT_EQ(report.totalUnits, w.units);
    EXPECT_GT(report.profiledUnits, 0u);
    EXPECT_LT(report.profiledUnits, w.units);
    EXPECT_TRUE(w.check()); // every unit written correctly
}

TEST(MixedVersion, TypedStatusForCallerErrors)
{
    // The mixed launchers are fallible entry points: caller errors
    // come back as typed Statuses instead of fatalling.
    auto device = gpuFactory()();
    runtime::Runtime rt(*device);
    Workload w = makeSpmvCsrGpuInputDep(SpmvInput::Random);
    w.registerWith(rt);

    runtime::MixedReport report;
    EXPECT_EQ(runtime::tryLaunchKernelMixed(rt, "nope", w.units, w.args,
                                            4, report)
                  .code(),
              support::StatusCode::NotFound);

    // A workload below one safe-point slice cannot profile even a
    // single segment.
    EXPECT_EQ(runtime::tryLaunchKernelMixed(rt, w.signature, 1, w.args,
                                            1, report)
                  .code(),
              support::StatusCode::FailedPrecondition);

    // Cached re-execution validates the selection against the
    // workload it claims to describe.
    const support::Status ok = runtime::tryLaunchKernelMixed(
        rt, w.signature, w.units, w.args, 4, report);
    ASSERT_TRUE(ok.ok()) << ok.toString();
    EXPECT_EQ(runtime::tryLaunchKernelMixedCached(rt, "nope", w.units,
                                                  w.args, report)
                  .code(),
              support::StatusCode::NotFound);
    EXPECT_EQ(runtime::tryLaunchKernelMixedCached(rt, w.signature,
                                                  w.units + 1, w.args,
                                                  report)
                  .code(),
              support::StatusCode::InvalidArgument);
    runtime::MixedReport bogus = report;
    bogus.segmentSelection.assign(bogus.segmentSelection.size(), 99);
    EXPECT_EQ(runtime::tryLaunchKernelMixedCached(rt, w.signature,
                                                  w.units, w.args,
                                                  bogus)
                  .code(),
              support::StatusCode::InvalidArgument);
}
