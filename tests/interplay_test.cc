/**
 * @file
 * Cross-component interplay tests: exclusive profiling vs eager work
 * on the GPU, wide (float4) loads in the coalescer, mixed-mode cached
 * execution errors, and selection-cache scoping.
 */
#include <gtest/gtest.h>

#include "dysel/mixed.hh"
#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"

using namespace dysel;

namespace {

kdp::KernelVariant
idKernel(const char *name, std::uint64_t flops = 8)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = 64;
    v.sandboxIndex = {0};
    v.fn = [flops](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::uint32_t>(0);
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            item.store(out, item.globalId(), 1u);
            item.flops(flops);
        });
    };
    return v;
}

} // namespace

TEST(Interplay, ExclusiveProfilingBlocksEagerWorkUntilDrained)
{
    sim::GpuDevice dev;
    auto variant = idKernel("k");
    kdp::Buffer<std::uint32_t> out(64 * 64, kdp::MemSpace::Global, "out");

    sim::LaunchStats excl_stats, eager_stats;
    sim::Launch excl;
    excl.variant = &variant;
    excl.args.add(out);
    excl.numGroups = 13;
    excl.stream = 1;
    excl.priority = 1;
    excl.exclusive = true;
    excl.onComplete = [&](const sim::LaunchStats &s) { excl_stats = s; };

    sim::Launch eager;
    eager.variant = &variant;
    eager.args.add(out);
    eager.firstGroup = 13;
    eager.numGroups = 13;
    eager.stream = 0;
    eager.priority = 0;
    eager.onComplete = [&](const sim::LaunchStats &s) {
        eager_stats = s;
    };

    dev.submit(std::move(excl));
    dev.submit(std::move(eager));
    dev.run();
    // The eager launch must not overlap the exclusive one.
    EXPECT_GE(eager_stats.firstStamp, excl_stats.lastStamp);
}

TEST(Interplay, ExclusiveWaitsForRunningEagerWork)
{
    sim::GpuDevice dev;
    auto variant = idKernel("k");
    kdp::Buffer<std::uint32_t> out(64 * 64, kdp::MemSpace::Global, "out");

    sim::LaunchStats eager_stats, excl_stats;
    sim::Launch eager;
    eager.variant = &variant;
    eager.args.add(out);
    eager.numGroups = 13;
    eager.stream = 0;
    eager.onComplete = [&](const sim::LaunchStats &s) {
        eager_stats = s;
    };
    dev.submit(std::move(eager));

    sim::Launch excl;
    excl.variant = &variant;
    excl.args.add(out);
    excl.firstGroup = 13;
    excl.numGroups = 13;
    excl.stream = 1;
    excl.priority = 1;
    excl.exclusive = true;
    excl.onComplete = [&](const sim::LaunchStats &s) { excl_stats = s; };
    dev.submit(std::move(excl));
    dev.run();
    // Even at higher priority, the exclusive launch starts only on an
    // empty device.
    EXPECT_GE(excl_stats.firstStamp, eager_stats.lastStamp);
}

TEST(Interplay, WideLoadsCoalesceAsSingleTransactions)
{
    // A float4 load (16B) per lane = half a 128B segment per 8 lanes:
    // the warp op should cost 4 transactions, same as 4 scalar
    // consecutive loads per lane would, but in one instruction slot.
    kdp::Buffer<float> buf(1 << 16, kdp::MemSpace::Global, "b");
    sim::GpuConfig cfg;
    sim::GpuSmState sm(cfg.tex);
    sim::Cache l2(cfg.l2);

    kdp::WorkGroupTrace wide;
    wide.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &wide);
        float tmp[4];
        for (unsigned lane = 0; lane < 32; ++lane)
            g.loadSpan(buf, std::uint64_t{lane} * 4, 4, lane, tmp);
    }
    const auto wide_cost = sim::gpuWorkGroupCost(wide, {}, 32, sm, l2,
                                                 cfg.cost);

    sim::GpuSmState sm2(cfg.tex);
    sim::Cache l22(cfg.l2);
    kdp::WorkGroupTrace scalar;
    scalar.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &scalar);
        for (unsigned rep = 0; rep < 4; ++rep)
            for (unsigned lane = 0; lane < 32; ++lane)
                g.load(buf, std::uint64_t{lane} * 4 + rep, lane);
    }
    const auto scalar_cost = sim::gpuWorkGroupCost(scalar, {}, 32, sm2,
                                                   l22, cfg.cost);
    // One wide instruction beats four scalar instructions (fewer
    // issue slots), touching the same segments.
    EXPECT_LT(wide_cost.throughputCycles, scalar_cost.throughputCycles);
}

TEST(InterplayDeath, MixedCachedRejectsMismatchedSelection)
{
    sim::GpuDevice dev;
    runtime::Runtime rt(dev);
    rt.addKernel("k", idKernel("a"));
    rt.addKernel("k", idKernel("b", 64));

    kdp::Buffer<std::uint32_t> out(64 * 512, kdp::MemSpace::Global,
                                   "out");
    kdp::KernelArgs args;
    args.add(out);
    runtime::MixedReport report;
    ASSERT_TRUE(
        runtime::tryLaunchKernelMixed(rt, "k", 512, args, 2, report).ok());
    ASSERT_GE(report.segmentSelection.size(), 1u);
    // Replaying with the wrong workload size must be rejected -- as a
    // typed InvalidArgument, not a process abort (callers can
    // re-profile).
    const auto st = runtime::tryLaunchKernelMixedCached(rt, "k", 256,
                                                        args, report);
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);
}

TEST(Interplay, SelectionCacheIsPerSignature)
{
    sim::GpuDevice dev;
    runtime::Runtime rt(dev);
    rt.addKernel("one", idKernel("a"));
    rt.addKernel("one", idKernel("b", 64));
    rt.addKernel("two", idKernel("c", 64));
    rt.addKernel("two", idKernel("d"));

    kdp::Buffer<std::uint32_t> out(64 * 2048, kdp::MemSpace::Global,
                                   "out");
    kdp::KernelArgs args;
    args.add(out);

    rt.launchKernel("one", 2048, args);
    EXPECT_TRUE(rt.cachedSelection("one").has_value());
    EXPECT_FALSE(rt.cachedSelection("two").has_value());
    rt.launchKernel("two", 2048, args);
    // Each signature selected its own cheap variant.
    EXPECT_EQ(*rt.cachedSelection("one"), 0);
    EXPECT_EQ(*rt.cachedSelection("two"), 1);
}
