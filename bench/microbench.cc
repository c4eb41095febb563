/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * cache model throughput, trace-replay cost models, the event engine,
 * per-work-group dispatch of solo and multi-stream launches, and a
 * packed fused launch end to end.  These bound the wall-clock
 * cost of the reproduction (the simulated kernels execute millions of
 * traced accesses per figure).
 */
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "sim/cache/cache.hh"
#include "sim/cpu/cpu_cost_model.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/event_engine.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"
#include "support/rng.hh"

using namespace dysel;
using namespace dysel::sim;

static void
BM_CacheSequentialAccess(benchmark::State &state)
{
    Cache cache({32 * 1024, 8, 64});
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSequentialAccess);

static void
BM_CacheRandomAccess(benchmark::State &state)
{
    Cache cache({32 * 1024, 8, 64});
    support::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next() & 0xfffff));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheRandomAccess);

static void
BM_EventEngineScheduleFire(benchmark::State &state)
{
    for (auto _ : state) {
        EventEngine engine;
        for (int i = 0; i < 1024; ++i)
            engine.schedule(static_cast<TimeNs>(i), [] {});
        engine.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventEngineScheduleFire);

namespace {

kdp::WorkGroupTrace
makeTrace(unsigned lanes, unsigned ops_per_lane)
{
    static kdp::Buffer<float> buf(1 << 20, kdp::MemSpace::Global, "b");
    kdp::WorkGroupTrace t;
    t.reset(lanes);
    kdp::GroupCtx g(0, lanes, 1, &t);
    for (unsigned i = 0; i < ops_per_lane; ++i)
        for (unsigned lane = 0; lane < lanes; ++lane)
            g.load(buf, (std::uint64_t{i} * lanes + lane) % (1 << 20),
                   lane);
    return t;
}

} // namespace

static void
BM_CpuCostModelScalarReplay(benchmark::State &state)
{
    const auto trace = makeTrace(64, 256);
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cpuWorkGroupCycles(trace, traits, core, l3, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_CpuCostModelScalarReplay);

static void
BM_CpuCostModelVectorReplay(benchmark::State &state)
{
    const auto trace = makeTrace(64, 256);
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    traits.vectorWidth = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cpuWorkGroupCycles(trace, traits, core, l3, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_CpuCostModelVectorReplay);

static void
BM_GpuCostModelWarpReplay(benchmark::State &state)
{
    const auto trace = makeTrace(64, 256);
    GpuConfig cfg;
    GpuSmState sm(cfg.tex);
    Cache l2(cfg.l2);
    kdp::VariantTraits traits;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            gpuWorkGroupCost(trace, traits, 64, sm, l2, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_GpuCostModelWarpReplay);

static void
BM_TraceRecording(benchmark::State &state)
{
    kdp::Buffer<float> buf(1 << 16, kdp::MemSpace::Global, "b");
    kdp::WorkGroupTrace t;
    for (auto _ : state) {
        t.reset(64);
        kdp::GroupCtx g(0, 64, 1, &t);
        for (unsigned i = 0; i < 64; ++i)
            for (unsigned lane = 0; lane < 64; ++lane)
                g.load(buf, (std::uint64_t{i} * 64 + lane) % (1 << 16),
                       lane);
    }
    state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_TraceRecording);

namespace {

/** A one-store kernel: each group stamps its first unit. */
kdp::KernelVariant
stampKernel()
{
    kdp::KernelVariant v;
    v.name = "unit-stamp";
    v.groupSize = 8;
    v.waFactor = 1;
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const std::uint64_t unit = g.unitBase();
        const auto lane = static_cast<std::uint32_t>(unit % g.groupSize());
        g.store(out, unit, static_cast<std::int32_t>(unit + 1), lane);
        g.flops(lane, 16);
    };
    return v;
}

/**
 * Submit one launch of @p groups stamp groups on each of @p streams
 * priority-@p priority streams of a CpuDevice and run the device
 * dry, once per iteration; report host ns per group.
 */
void
runStampLaunches(benchmark::State &state, std::uint64_t streams,
                 std::uint64_t groups, int priority)
{
    CpuDevice dev;
    const kdp::KernelVariant v = stampKernel();
    kdp::Buffer<std::int32_t> out(streams * groups * v.groupSize,
                                  kdp::MemSpace::Global, "out");
    for (auto _ : state) {
        for (std::uint64_t s = 0; s < streams; ++s) {
            Launch l;
            l.variant = &v;
            l.args.add(out);
            l.firstGroup = s * groups;
            l.numGroups = groups;
            l.stream = static_cast<int>(s + 1);
            l.priority = priority;
            dev.submit(std::move(l));
        }
        dev.run();
        benchmark::ClobberMemory();
    }
    state.counters["ns_per_group"] = benchmark::Counter(
        static_cast<double>(state.iterations() * streams * groups),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

} // namespace

/**
 * Serve-cold's shape: one solo launch of 4096 one-access groups
 * (groupSize 8, waFactor 1) on one stream.  Mostly per-group dispatch:
 * the event heap, the dispatch queue, the core wake-up and the
 * argument check.
 */
static void
BM_SoloLaunchDispatch(benchmark::State &state)
{
    runStampLaunches(state, 1, 4096, 0);
}
BENCHMARK(BM_SoloLaunchDispatch);

/**
 * Three priority-1 streams of 1365 groups each, served round-robin
 * the way concurrent micro-profiling slices are.
 */
static void
BM_ProfilingStreams(benchmark::State &state)
{
    runStampLaunches(state, 3, 1365, 1);
}
BENCHMARK(BM_ProfilingStreams);

/**
 * A packed fused launch in serve-warm's shape: a CpuDevice runs 8
 * members of 512 units each with groupSize 8 and waFactor 1, so each
 * physical group runs 8 member groups on one context re-addressed in
 * place.  Reports host time per member group, cost model and event
 * engine included.
 */
static void
BM_FusedPackedLaunch(benchmark::State &state)
{
    constexpr std::uint64_t kMembers = 8;
    constexpr std::uint64_t kUnits = 512;
    CpuDevice dev;
    runtime::Runtime rt(dev);
    if (!rt.tryAddKernel("stamp", stampKernel()).ok()) {
        state.SkipWithError("kernel registration failed");
        return;
    }
    std::vector<kdp::Buffer<std::int32_t>> outs;
    outs.reserve(kMembers);
    std::vector<kdp::KernelArgs> args(kMembers);
    std::vector<runtime::FusedSlice> slices;
    for (std::uint64_t m = 0; m < kMembers; ++m) {
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "out");
        args[m].add(outs.back());
        slices.push_back({&args[m], kUnits, 0});
    }
    runtime::LaunchReport report;
    for (auto _ : state) {
        if (!rt.launchFused("stamp", 0, std::span(slices),
                            runtime::LaunchOptions(), report)
                 .ok()) {
            state.SkipWithError("fused launch failed");
            return;
        }
        benchmark::ClobberMemory();
    }
    state.counters["ns_per_member_group"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kMembers * kUnits),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FusedPackedLaunch);

BENCHMARK_MAIN();
