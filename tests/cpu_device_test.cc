/**
 * @file
 * Tests for the CPU device simulator: execution correctness, task
 * scheduling (priorities, streams, parallelism), cost-model
 * properties (locality, vectorization, scratchpad lowering), and the
 * allocation-free per-work-group path.
 */
#include <gtest/gtest.h>

#include <span>

#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "sim/cpu/cpu_cost_model.hh"
#include "sim/cpu/cpu_device.hh"

#include "alloc_hook.hh"

using namespace dysel;
using namespace dysel::sim;

namespace {

/** Kernel writing each work-item's global id into arg 0. */
kdp::KernelVariant
idKernel(const char *name = "id", std::uint32_t group_size = 8)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = group_size;
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::uint32_t>(0);
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            item.store(out, item.globalId(),
                       static_cast<std::uint32_t>(item.globalId()));
            item.flops(4);
        });
    };
    return v;
}

} // namespace

TEST(CpuDevice, ExecutesAllGroupsAndProducesOutput)
{
    CpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(8 * 16, kdp::MemSpace::Global, "out");

    Launch launch;
    launch.variant = &variant;
    launch.args.add(out);
    launch.numGroups = 16;
    bool completed = false;
    launch.onComplete = [&](const LaunchStats &stats) {
        completed = true;
        EXPECT_EQ(stats.groups, 16u);
        EXPECT_GT(stats.busyTime, 0u);
        EXPECT_GE(stats.lastStamp, stats.firstStamp);
    };
    dev.submit(std::move(launch));
    dev.run();

    EXPECT_TRUE(completed);
    EXPECT_EQ(dev.groupsExecuted(), 16u);
    for (std::uint32_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out.at(i), i);
}

TEST(CpuDevice, FirstGroupOffsetsTheGrid)
{
    CpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(8 * 8, kdp::MemSpace::Global, "out");
    out.fill(~0u);

    Launch launch;
    launch.variant = &variant;
    launch.args.add(out);
    launch.firstGroup = 4; // paper's block-index shifting
    launch.numGroups = 4;
    dev.submit(std::move(launch));
    dev.run();

    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(out.at(i), ~0u); // groups 0-3 untouched
    for (std::uint32_t i = 32; i < 64; ++i)
        EXPECT_EQ(out.at(i), i);
}

TEST(CpuDevice, ParallelismShortensWallTime)
{
    CpuConfig one_core;
    one_core.cores = 1;
    CpuDevice serial(one_core);
    CpuDevice parallel; // 8 cores

    auto run = [](CpuDevice &dev) {
        auto variant = idKernel();
        kdp::Buffer<std::uint32_t> out(8 * 64, kdp::MemSpace::Global,
                                       "out");
        Launch launch;
        launch.variant = &variant;
        launch.args.add(out);
        launch.numGroups = 64;
        dev.submit(std::move(launch));
        dev.run();
        return dev.now();
    };

    const TimeNs serial_time = run(serial);
    const TimeNs parallel_time = run(parallel);
    EXPECT_LT(parallel_time * 4, serial_time);
}

TEST(CpuDevice, HigherPriorityRunsFirst)
{
    CpuConfig cfg;
    cfg.cores = 1; // serialize to observe ordering
    CpuDevice dev(cfg);
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(8 * 8, kdp::MemSpace::Global, "out");

    TimeNs low_done = 0, high_done = 0;
    Launch low;
    low.variant = &variant;
    low.args.add(out);
    low.numGroups = 4;
    low.priority = 0;
    low.stream = 1;
    low.onComplete = [&](const LaunchStats &) { low_done = dev.now(); };

    Launch high;
    high.variant = &variant;
    high.args.add(out);
    high.firstGroup = 4;
    high.numGroups = 4;
    high.priority = 1;
    high.stream = 2;
    high.onComplete = [&](const LaunchStats &) { high_done = dev.now(); };

    // Submit low first; the profiling-priority launch must still
    // finish first (§3.2's prioritized task groups).
    dev.submit(std::move(low));
    dev.submit(std::move(high));
    dev.run();
    EXPECT_LT(high_done, low_done);
}

TEST(CpuDevice, SameStreamLaunchesSerialize)
{
    CpuDevice dev;
    auto variant = idKernel();
    kdp::Buffer<std::uint32_t> out(8 * 16, kdp::MemSpace::Global, "out");

    TimeNs first_end = 0, second_first_start = 0;
    Launch a;
    a.variant = &variant;
    a.args.add(out);
    a.numGroups = 8;
    a.stream = 3;
    a.onComplete = [&](const LaunchStats &s) { first_end = s.lastStamp; };

    Launch b;
    b.variant = &variant;
    b.args.add(out);
    b.firstGroup = 8;
    b.numGroups = 8;
    b.stream = 3;
    b.onComplete = [&](const LaunchStats &s) {
        second_first_start = s.firstStamp;
    };

    dev.submit(std::move(a));
    dev.submit(std::move(b));
    dev.run();
    EXPECT_GE(second_first_start, first_end);
}

TEST(CpuDevice, NoiseIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        CpuConfig cfg;
        cfg.noiseSigma = 0.2;
        cfg.seed = seed;
        CpuDevice dev(cfg);
        auto variant = idKernel();
        kdp::Buffer<std::uint32_t> out(8 * 32, kdp::MemSpace::Global,
                                       "out");
        Launch launch;
        launch.variant = &variant;
        launch.args.add(out);
        launch.numGroups = 32;
        dev.submit(std::move(launch));
        dev.run();
        return dev.now();
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

TEST(CpuDevice, IdleCoresStartAStreamSuccessorInIndexOrder)
{
    // Four cores.  Launch A's groups run for increasing times, so
    // cores 0-2 sit idle when core 3 finishes A; launch B waits behind
    // A in the same stream, and that GroupDone must start B on the
    // idle cores in index order (not the freed core first).  Group g
    // of A leaves region g in core g's private L1; B's group j reads
    // region j % 4, so B's busy time and the start of B's last groups
    // depend on which core ran which group.  The pinned values were
    // computed before idle-core tracking replaced the scan of every
    // core.
    CpuConfig cfg;
    cfg.cores = 4;
    CpuDevice dev(cfg);
    kdp::Buffer<float> data(4 * 512, kdp::MemSpace::Global, "data");
    std::vector<std::pair<std::uint64_t, TimeNs>> starts;
    kdp::KernelVariant v;
    v.name = "regions";
    v.groupSize = 8;
    v.fn = [&](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        const auto &buf = args.buf<float>(0);
        const std::uint64_t grid = g.group();
        starts.emplace_back(grid, dev.now());
        for (std::uint32_t i = 0; i < 64; ++i)
            for (std::uint32_t lane = 0; lane < 8; ++lane)
                g.load(buf, (grid % 4) * 512 + i * 8 + lane, lane);
        if (grid < 4)
            g.flops(0, (grid + 1) * 4000);
    };

    LaunchStats a_stats, b_stats;
    Launch a;
    a.variant = &v;
    a.args.add(data);
    a.numGroups = 4;
    a.stream = 1;
    a.onComplete = [&](const LaunchStats &s) { a_stats = s; };
    Launch b;
    b.variant = &v;
    b.args.add(data);
    b.firstGroup = 4;
    b.numGroups = 6;
    b.stream = 1;
    b.onComplete = [&](const LaunchStats &s) { b_stats = s; };
    dev.submit(std::move(a));
    dev.submit(std::move(b));
    dev.run();

    EXPECT_EQ(a_stats.firstStamp, 800u);
    EXPECT_EQ(a_stats.lastStamp, 6666u);
    EXPECT_EQ(a_stats.busyTime, 16795u);
    EXPECT_EQ(b_stats.firstStamp, 6666u);
    EXPECT_EQ(b_stats.lastStamp, 7392u);
    EXPECT_EQ(b_stats.busyTime, 2178u);
    // Grid ids in start order: B's first four groups start together on
    // cores 0-3 and its last two on the first cores to free up.
    using Start = std::pair<std::uint64_t, TimeNs>;
    EXPECT_EQ(starts, (std::vector<Start>{{0, 800},
                                          {1, 800},
                                          {2, 800},
                                          {3, 800},
                                          {4, 6666},
                                          {5, 6666},
                                          {6, 6666},
                                          {7, 6666},
                                          {8, 7029},
                                          {9, 7029}}));
    EXPECT_EQ(dev.engine().eventsFired(), 12u);
}

TEST(CpuDevice, CoreCountIsOneTo64)
{
    // Idle cores are tracked as one 64-bit mask.
    CpuConfig cfg;
    cfg.cores = 0;
    EXPECT_THROW(CpuDevice{cfg}, std::invalid_argument);
    cfg.cores = 65;
    EXPECT_THROW(CpuDevice{cfg}, std::invalid_argument);

    // All 64 cores, the top mask bit included, start a group at once.
    cfg.cores = 64;
    CpuDevice dev(cfg);
    std::vector<TimeNs> starts;
    kdp::KernelVariant v = idKernel();
    const kdp::KernelFn body = v.fn;
    v.fn = [&](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        starts.push_back(dev.now());
        body(g, args);
    };
    kdp::Buffer<std::uint32_t> out(8 * 64, kdp::MemSpace::Global, "out");
    Launch launch;
    launch.variant = &v;
    launch.args.add(out);
    launch.numGroups = 64;
    dev.submit(std::move(launch));
    dev.run();
    EXPECT_EQ(starts, std::vector<TimeNs>(64, cfg.launchOverheadNs));
    EXPECT_EQ(dev.groupsExecuted(), 64u);
}

// ---- Cost model properties -----------------------------------------

namespace {

kdp::WorkGroupTrace
sequentialTrace(const kdp::Buffer<float> &buf, unsigned lanes,
                unsigned per_lane)
{
    kdp::WorkGroupTrace t;
    t.reset(lanes);
    kdp::GroupCtx g(0, lanes, 1, &t);
    for (unsigned i = 0; i < per_lane; ++i)
        for (unsigned lane = 0; lane < lanes; ++lane)
            g.load(buf, std::uint64_t{i} * lanes + lane, lane);
    return t;
}

double
costOf(const kdp::WorkGroupTrace &t, const kdp::VariantTraits &traits)
{
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    return cpuWorkGroupCycles(t, traits, core, l3, cfg.cost);
}

/** Cost with warm caches: replay once, measure the second pass. */
double
warmCostOf(const kdp::WorkGroupTrace &t, const kdp::VariantTraits &traits)
{
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    cpuWorkGroupCycles(t, traits, core, l3, cfg.cost);
    return cpuWorkGroupCycles(t, traits, core, l3, cfg.cost);
}

} // namespace

TEST(CpuCostModel, CachedReuseIsCheaperThanStreaming)
{
    kdp::Buffer<float> big(1 << 22, kdp::MemSpace::Global, "big");
    kdp::Buffer<float> small(16, kdp::MemSpace::Global, "small");

    kdp::WorkGroupTrace stream;
    stream.reset(1);
    kdp::GroupCtx gs(0, 1, 1, &stream);
    for (unsigned i = 0; i < 4096; ++i)
        gs.load(big, std::uint64_t{i} * 64, 0); // one access per line

    kdp::WorkGroupTrace reuse;
    reuse.reset(1);
    kdp::GroupCtx gr(0, 1, 1, &reuse);
    for (unsigned i = 0; i < 4096; ++i)
        gr.load(small, i % 16, 0);

    EXPECT_GT(costOf(stream, {}), 4.0 * costOf(reuse, {}));
}

TEST(CpuCostModel, VectorizationSpeedsUpContiguousKernels)
{
    kdp::Buffer<float> buf(8 * 128, kdp::MemSpace::Global, "b");
    const auto t = sequentialTrace(buf, 8, 128);

    kdp::VariantTraits scalar;
    kdp::VariantTraits wide;
    wide.vectorWidth = 8;
    // Compare steady-state (warm-cache) costs; cold compulsory
    // misses are identical for both and would mask the speedup.
    const double c_scalar = warmCostOf(t, scalar);
    const double c_wide = warmCostOf(t, wide);
    EXPECT_LT(c_wide * 2, c_scalar);
}

TEST(CpuCostModel, DivergencePenalizesWiderVectors)
{
    kdp::WorkGroupTrace t;
    t.reset(8);
    kdp::GroupCtx g(0, 8, 1, &t);
    for (unsigned i = 0; i < 256; ++i)
        for (unsigned lane = 0; lane < 8; ++lane)
            g.branch(lane, lane % 2 == 0); // divergent everywhere
    kdp::VariantTraits w4, w8;
    w4.vectorWidth = 4;
    w8.vectorWidth = 8;
    EXPECT_GT(costOf(t, w8), costOf(t, w4));
}

TEST(CpuCostModel, GatherCostsMoreThanContiguous)
{
    kdp::Buffer<float> buf(8 * 4096, kdp::MemSpace::Global, "b");
    // Contiguous: lanes access adjacent elements.
    const auto contiguous = sequentialTrace(buf, 8, 64);
    // Gather: lanes access strided elements (one per line).
    kdp::WorkGroupTrace gather;
    gather.reset(8);
    kdp::GroupCtx g(0, 8, 1, &gather);
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned lane = 0; lane < 8; ++lane)
            g.load(buf, (std::uint64_t{i} * 8 + lane) * 17, lane);
    kdp::VariantTraits wide;
    wide.vectorWidth = 8;
    EXPECT_GT(costOf(gather, wide), costOf(contiguous, wide));
}

TEST(CpuCostModel, BroadcastIsCheap)
{
    kdp::Buffer<float> buf(64, kdp::MemSpace::Global, "b");
    // All lanes read the same element per op.
    kdp::WorkGroupTrace t;
    t.reset(8);
    kdp::GroupCtx g(0, 8, 1, &t);
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned lane = 0; lane < 8; ++lane)
            g.load(buf, i % 16, lane);
    kdp::VariantTraits wide;
    wide.vectorWidth = 8;
    // Broadcast vector ops should cost about one scalar load each,
    // i.e. far less than 8 separate loads.
    const double c = costOf(t, wide);
    EXPECT_LT(c, 64 * 8 * 1.0);
}

TEST(CpuCostModel, ScratchpadLoweringCostsExtra)
{
    kdp::WorkGroupTrace with_scratch;
    with_scratch.reset(1);
    kdp::GroupCtx g(0, 1, 1, &with_scratch);
    auto local = g.allocLocal<float>(64);
    for (unsigned i = 0; i < 256; ++i)
        local.set(g, i % 64, 1.0f, 0);

    kdp::Buffer<float> buf(64, kdp::MemSpace::Global, "b");
    kdp::WorkGroupTrace plain;
    plain.reset(1);
    kdp::GroupCtx g2(0, 1, 1, &plain);
    for (unsigned i = 0; i < 256; ++i)
        g2.store(buf, i % 64, 1.0f, 0);

    EXPECT_GT(costOf(with_scratch, {}), costOf(plain, {}));
}

TEST(CpuCostModel, SoftwarePrefetchIsPureOverheadOnCpu)
{
    kdp::Buffer<float> buf(1024, kdp::MemSpace::Global, "b");
    const auto t = sequentialTrace(buf, 8, 64);
    kdp::VariantTraits plain, prefetch;
    prefetch.softwarePrefetch = true;
    EXPECT_GT(costOf(t, prefetch), costOf(t, plain));
}

/**
 * On a warm device, the per-work-group path allocates nothing: a
 * packed fused launch (8 member groups per physical group, all run on
 * the physical group's one context, re-addressed in place) of 4096
 * physical groups makes exactly as many heap allocations as one of
 * 64.  Only per-launch set-up may allocate.
 */
TEST(CpuDeviceAlloc, PackedFusedLaunchAllocatesPerLaunchNotPerGroup)
{
    constexpr std::uint32_t kGroupSize = 8;
    constexpr std::uint64_t kPack = 8; // groupSize / waFactor
    CpuDevice dev;
    runtime::Runtime rt(dev);
    kdp::KernelVariant v;
    v.name = "unit-stamp";
    v.groupSize = kGroupSize;
    v.waFactor = 1;
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::uint32_t>(0);
        const std::uint64_t unit = g.unitBase();
        if (unit < out.size())
            g.store(out, unit, static_cast<std::uint32_t>(unit + 1), 0);
        kdp::forEachItem(g, [](kdp::ItemCtx &item) { item.flops(3); });
    };
    ASSERT_TRUE(rt.tryAddKernel("stamp", std::move(v)).ok());

    // Two members per launch; each member's units are its groups.
    constexpr std::uint64_t kSmall = 64 * kPack / 2;
    constexpr std::uint64_t kLarge = 4096 * kPack / 2;
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
