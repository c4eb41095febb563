/**
 * @file
 * Tests for the GPU device simulator: occupancy, exclusive profiling
 * launches, cost-model properties (coalescing, divergence, texture
 * path, bank conflicts, lock-step ALU), and the allocation-free
 * per-work-group path, solo and fused.
 */
#include <gtest/gtest.h>

#include <span>

#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"

#include "alloc_hook.hh"

using namespace dysel;
using namespace dysel::sim;

namespace {

kdp::KernelVariant
idKernel(const char *name = "id", std::uint32_t group_size = 64)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = group_size;
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::uint32_t>(0);
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            item.store(out, item.globalId(),
                       static_cast<std::uint32_t>(item.globalId()));
            item.flops(2);
        });
    };
    return v;
}

} // namespace

TEST(GpuDevice, ExecutesAllGroups)
{
    GpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(64 * 32, kdp::MemSpace::Global, "out");

    Launch launch;
    launch.variant = &variant;
    launch.args.add(out);
    launch.numGroups = 32;
    dev.submit(std::move(launch));
    dev.run();
    for (std::uint32_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out.at(i), i);
}

TEST(GpuDevice, OccupancyLimitedByThreads)
{
    GpuDevice dev;
    kdp::KernelVariant v = idKernel("big", 512);
    // 2048 threads / 512 = 4 blocks.
    EXPECT_EQ(dev.occupancy(v), 4u);
}

TEST(GpuDevice, OccupancyLimitedByBlockCap)
{
    GpuDevice dev;
    kdp::KernelVariant v = idKernel("small", 64);
    EXPECT_EQ(dev.occupancy(v), 16u); // blocksPerSm cap
}

TEST(GpuDevice, OccupancyLimitedByScratchpad)
{
    GpuDevice dev;
    kdp::KernelVariant v = idKernel("scratchy", 64);
    v.traits.scratchBytes = 16 * 1024; // 48K / 16K = 3 blocks
    EXPECT_EQ(dev.occupancy(v), 3u);
}

TEST(GpuDevice, OccupancyLimitedByRegisters)
{
    GpuDevice dev;
    kdp::KernelVariant v = idKernel("regs", 64);
    v.traits.regsPerThread = 128; // 65536 / (128*64) = 8 blocks
    EXPECT_EQ(dev.occupancy(v), 8u);
}

TEST(GpuDevice, ExclusiveLaunchesSerialize)
{
    GpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(64 * 64, kdp::MemSpace::Global, "out");

    LaunchStats stats_a, stats_b;
    Launch a;
    a.variant = &variant;
    a.args.add(out);
    a.numGroups = 26;
    a.stream = 1;
    a.exclusive = true;
    a.onComplete = [&](const LaunchStats &s) { stats_a = s; };

    Launch b;
    b.variant = &variant;
    b.args.add(out);
    b.firstGroup = 26;
    b.numGroups = 26;
    b.stream = 2;
    b.exclusive = true;
    b.onComplete = [&](const LaunchStats &s) { stats_b = s; };

    dev.submit(std::move(a));
    dev.submit(std::move(b));
    dev.run();
    // No overlap: b starts only after a fully drained.
    EXPECT_GE(stats_b.firstStamp, stats_a.lastStamp);
}

TEST(GpuDevice, NonExclusiveLaunchesOverlap)
{
    GpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(64 * 64, kdp::MemSpace::Global, "out");

    LaunchStats stats_a, stats_b;
    Launch a;
    a.variant = &variant;
    a.args.add(out);
    a.numGroups = 26;
    a.stream = 1;
    a.onComplete = [&](const LaunchStats &s) { stats_a = s; };
    Launch b;
    b.variant = &variant;
    b.args.add(out);
    b.firstGroup = 26;
    b.numGroups = 26;
    b.stream = 2;
    b.onComplete = [&](const LaunchStats &s) { stats_b = s; };

    dev.submit(std::move(a));
    dev.submit(std::move(b));
    dev.run();
    EXPECT_LT(stats_b.firstStamp, stats_a.lastStamp);
}

TEST(GpuDevice, LaunchOverheadDelaysStart)
{
    GpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(64, kdp::MemSpace::Global, "out");
    Launch launch;
    launch.variant = &variant;
    launch.args.add(out);
    launch.numGroups = 1;
    LaunchStats stats;
    launch.onComplete = [&](const LaunchStats &s) { stats = s; };
    dev.submit(std::move(launch));
    dev.run();
    EXPECT_GE(stats.firstStamp, dev.launchOverheadNs());
}

// ---- Cost model properties -----------------------------------------

namespace {

GpuWgCost
costOf(const kdp::WorkGroupTrace &t, std::uint32_t group_size,
       const kdp::VariantTraits &traits = {})
{
    GpuConfig cfg;
    GpuSmState sm(cfg.tex);
    Cache l2(cfg.l2);
    return gpuWorkGroupCost(t, traits, group_size, sm, l2, cfg.cost);
}

} // namespace

TEST(GpuCostModel, CoalescedBeatsScattered)
{
    kdp::Buffer<float> buf(1 << 20, kdp::MemSpace::Global, "b");

    kdp::WorkGroupTrace coalesced;
    coalesced.reset(32);
    kdp::GroupCtx gc(0, 32, 1, &coalesced);
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned lane = 0; lane < 32; ++lane)
            gc.load(buf, std::uint64_t{i} * 32 + lane, lane);

    kdp::WorkGroupTrace scattered;
    scattered.reset(32);
    kdp::GroupCtx gs(0, 32, 1, &scattered);
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned lane = 0; lane < 32; ++lane)
            gs.load(buf, (std::uint64_t{i} * 32 + lane) * 997 % (1 << 20),
                    lane);

    EXPECT_GT(costOf(scattered, 32).throughputCycles,
              8 * costOf(coalesced, 32).throughputCycles);
}

TEST(GpuCostModel, LockStepAluChargesWorstLane)
{
    kdp::WorkGroupTrace balanced;
    balanced.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &balanced);
        for (unsigned lane = 0; lane < 32; ++lane)
            g.flops(lane, 100);
    }
    kdp::WorkGroupTrace skewed;
    skewed.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &skewed);
        g.flops(0, 100); // one busy lane, 31 idle
    }
    // The warp pays for its busiest lane either way.
    EXPECT_DOUBLE_EQ(costOf(balanced, 32).throughputCycles,
                     costOf(skewed, 32).throughputCycles);
}

TEST(GpuCostModel, DivergentBranchesCost)
{
    kdp::WorkGroupTrace uniform, divergent;
    uniform.reset(32);
    divergent.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &uniform);
        for (unsigned i = 0; i < 32; ++i)
            for (unsigned lane = 0; lane < 32; ++lane)
                g.branch(lane, true);
    }
    {
        kdp::GroupCtx g(0, 32, 1, &divergent);
        for (unsigned i = 0; i < 32; ++i)
            for (unsigned lane = 0; lane < 32; ++lane)
                g.branch(lane, lane % 2 == 0);
    }
    EXPECT_GT(costOf(divergent, 32).throughputCycles,
              costOf(uniform, 32).throughputCycles);
}

TEST(GpuCostModel, ScratchpadBankConflictsSerialize)
{
    kdp::WorkGroupTrace clean, conflicted;
    clean.reset(32);
    conflicted.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &clean);
        auto local = g.allocLocal<float>(1024);
        for (unsigned i = 0; i < 16; ++i)
            for (unsigned lane = 0; lane < 32; ++lane)
                local.set(g, i * 32 + lane, 0.0f, lane); // distinct banks
    }
    {
        kdp::GroupCtx g(0, 32, 1, &conflicted);
        auto local = g.allocLocal<float>(1024);
        for (unsigned i = 0; i < 16; ++i)
            for (unsigned lane = 0; lane < 32; ++lane)
                local.set(g, lane * 32, 0.0f, lane); // same bank
    }
    EXPECT_GT(costOf(conflicted, 32).throughputCycles,
              costOf(clean, 32).throughputCycles);
}

TEST(GpuCostModel, TextureCacheHelpsReusedGathers)
{
    kdp::Buffer<float> x_global(2048, kdp::MemSpace::Global, "x");
    kdp::Buffer<float> x_tex(2048, kdp::MemSpace::Texture, "xt");

    auto gather = [](kdp::Buffer<float> &buf) {
        kdp::WorkGroupTrace t;
        t.reset(32);
        kdp::GroupCtx g(0, 32, 1, &t);
        std::uint64_t state = 12345;
        for (unsigned i = 0; i < 128; ++i) {
            for (unsigned lane = 0; lane < 32; ++lane) {
                state = state * 6364136223846793005ull + 1442695040888963407ull;
                g.load(buf, state % 2048, lane);
            }
        }
        return t;
    };

    const auto t_global = gather(x_global);
    const auto t_tex = gather(x_tex);
    EXPECT_LT(costOf(t_tex, 32).throughputCycles,
              costOf(t_global, 32).throughputCycles);
}

TEST(GpuCostModel, AtomicsSerialize)
{
    kdp::Buffer<std::uint32_t> bins(64, kdp::MemSpace::Global, "bins");
    kdp::WorkGroupTrace plain, atomic;
    plain.reset(32);
    atomic.reset(32);
    {
        kdp::GroupCtx g(0, 32, 1, &plain);
        for (unsigned lane = 0; lane < 32; ++lane)
            g.store(bins, lane, 1u, lane);
    }
    {
        kdp::GroupCtx g(0, 32, 1, &atomic);
        for (unsigned lane = 0; lane < 32; ++lane)
            g.atomicAdd(bins, lane, 1u, lane);
    }
    EXPECT_GT(costOf(atomic, 32).throughputCycles,
              costOf(plain, 32).throughputCycles);
}

TEST(GpuCostModel, PrefetchReducesLatencyComponent)
{
    kdp::Buffer<float> buf(1 << 20, kdp::MemSpace::Global, "b");
    kdp::WorkGroupTrace t;
    t.reset(32);
    kdp::GroupCtx g(0, 32, 1, &t);
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned lane = 0; lane < 32; ++lane)
            g.load(buf, std::uint64_t{i} * 4096 + lane, lane);
    kdp::VariantTraits plain, prefetch;
    prefetch.softwarePrefetch = true;
    EXPECT_LT(costOf(t, 32, prefetch).latencyCycles,
              costOf(t, 32, plain).latencyCycles);
    EXPECT_DOUBLE_EQ(costOf(t, 32, prefetch).throughputCycles,
                     costOf(t, 32, plain).throughputCycles);
}

/**
 * On a warm device, the per-work-group path allocates nothing, for a
 * kernel staging through Local scratch too: a launch of 4096 groups
 * makes exactly as many heap allocations as one of 64.
 */
TEST(GpuDeviceAlloc, LocalScratchLaunchAllocatesPerLaunchNotPerGroup)
{
    constexpr std::uint32_t kGroupSize = 32;
    GpuDevice dev;
    kdp::KernelVariant v;
    v.name = "local-reverse";
    v.groupSize = kGroupSize;
    v.traits.scratchBytes = kGroupSize * sizeof(float);
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<float>(0);
        auto tile = g.allocLocal<float>(g.groupSize());
        // Every slot reads zero before this group writes it.
        float seen = 0;
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            seen += item.localGet(tile, item.localId());
            item.localSet(tile, item.localId(),
                          static_cast<float>(item.globalId()));
        });
        g.barrier();
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            const std::uint32_t peer = g.groupSize() - 1 - item.localId();
            item.store(out, item.globalId(),
                       item.localGet(tile, peer) + seen);
        });
    };

    kdp::Buffer<float> out(4096 * kGroupSize, kdp::MemSpace::Global,
                           "out");
    auto launch = [&](std::uint64_t groups) {
        Launch l;
        l.variant = &v;
        l.args.add(out);
        l.numGroups = groups;
        dev.submit(std::move(l));
        dev.run();
    };

    launch(4096); // warm-up: traces, slot tables and heaps at size
    launch(64);
    const std::uint64_t small = test::allocationsOf([&] { launch(64); });
    const std::uint64_t large = test::allocationsOf([&] { launch(4096); });
    EXPECT_EQ(large, small)
        << "the per-group path allocated: " << small << " allocations for "
        << "64 groups, " << large << " for 4096";
    for (std::uint64_t grp = 0; grp < 4096; ++grp)
        for (std::uint32_t lane = 0; lane < kGroupSize; ++lane)
            ASSERT_EQ(out.at(grp * kGroupSize + lane),
                      static_cast<float>(grp * kGroupSize + kGroupSize - 1
                                         - lane))
                << grp << "/" << lane;
}

/**
 * The GPU twin of CpuDeviceAlloc's packed fused launch: 8 member
 * groups share each physical group's context, re-addressed in place,
 * and each member stages through Local scratch that must read zero.
 * 4096 physical groups make exactly as many heap allocations as 64.
 */
TEST(GpuDeviceAlloc, PackedFusedLaunchAllocatesPerLaunchNotPerGroup)
{
    constexpr std::uint32_t kGroupSize = 32;
    constexpr std::uint64_t kWaFactor = 4;
    constexpr std::uint64_t kPack = kGroupSize / kWaFactor;
    GpuDevice dev;
    runtime::Runtime rt(dev);
    kdp::KernelVariant v;
    v.name = "unit-stamp";
    v.groupSize = kGroupSize;
    v.waFactor = kWaFactor;
    v.traits.scratchBytes = kWaFactor * sizeof(std::uint32_t);
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::uint32_t>(0);
        auto tile = g.allocLocal<std::uint32_t>(g.waFactor());
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            const std::uint32_t lane = item.localId();
            const std::uint64_t unit = g.unitBase() + lane;
            if (lane >= g.waFactor() || unit >= out.size())
                return;
            // A stale slot from an earlier member would add to the sum.
            const std::uint32_t stale = item.localGet(tile, lane);
            item.localSet(tile, lane, static_cast<std::uint32_t>(unit));
            item.store(out, unit,
                       stale + static_cast<std::uint32_t>(unit + 1));
        });
    };
    ASSERT_TRUE(rt.tryAddKernel("stamp", std::move(v)).ok());

    // Two members per launch; each member covers half the groups.
    constexpr std::uint64_t kSmall = 64 * kPack * kWaFactor / 2;
    constexpr std::uint64_t kLarge = 4096 * kPack * kWaFactor / 2;
    kdp::Buffer<std::uint32_t> a(kLarge, kdp::MemSpace::Global, "a");
    kdp::Buffer<std::uint32_t> b(kLarge, kdp::MemSpace::Global, "b");
    kdp::KernelArgs args_a, args_b;
    args_a.add(a);
    args_b.add(b);
    auto fused = [&](std::uint64_t units) {
        const runtime::FusedSlice slices[] = {{&args_a, units, 0},
                                              {&args_b, units, 0}};
        runtime::LaunchReport report;
        ASSERT_TRUE(rt.launchFused("stamp", 0, std::span(slices),
                                   runtime::LaunchOptions(), report)
                        .ok());
        ASSERT_TRUE(report.fused);
    };

    fused(kLarge); // warm-up: traces, slot tables and heaps at size
    fused(kSmall);
    const std::uint64_t groups0 = dev.groupsExecuted();
    const std::uint64_t small = test::allocationsOf([&] { fused(kSmall); });
    const std::uint64_t large = test::allocationsOf([&] { fused(kLarge); });
    EXPECT_EQ(dev.groupsExecuted() - groups0, 64u + 4096u);
    EXPECT_EQ(large, small)
        << "the per-group path allocated: " << small << " allocations for "
        << "64 groups, " << large << " for 4096";
    for (std::uint64_t i = 0; i < kLarge; ++i) {
        ASSERT_EQ(a.at(i), i + 1) << i;
        ASSERT_EQ(b.at(i), i + 1) << i;
    }
}
