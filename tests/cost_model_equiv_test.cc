/**
 * @file
 * Differential test of the CPU and GPU timing models against a frozen
 * copy of their original hash-map replays.
 *
 * The models group trace events into machine ops through
 * sim/op_groups.hh.  The oracle below groups them with unordered_maps
 * keyed (lane / w, seq), exactly as the models did before; seeded
 * random traces recorded through GroupCtx must come out bit-identical
 * (same doubles, same cache statistics, same resident lines).  Once
 * warm, the models must replay without touching the heap.
 */
// The replaced global operator new below is malloc-backed; GCC pairs
// it against the library operator delete at inlined call sites and
// warns spuriously -- the replacement covers both sides.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <new>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kdp/context.hh"
#include "sim/cpu/cpu_cost_model.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"

using namespace dysel;
using namespace dysel::sim;

// Counts heap allocations while tlCountAllocs is set on this thread.
namespace {
thread_local bool tlCountAllocs = false;
thread_local std::uint64_t tlAllocCount = 0;
} // namespace

void *
operator new(std::size_t sz)
{
    if (tlCountAllocs)
        ++tlAllocCount;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    return operator new(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace oracle {

struct OpKey
{
    std::uint32_t laneGroup;
    std::uint32_t seq;

    bool operator==(const OpKey &o) const
    {
        return laneGroup == o.laneGroup && seq == o.seq;
    }
};

struct OpKeyHash
{
    std::size_t
    operator()(const OpKey &k) const
    {
        return (static_cast<std::size_t>(k.laneGroup) << 32) ^ k.seq;
    }
};

OpKey
keyOf(const kdp::MemAccess &a, unsigned w)
{
    return {static_cast<std::uint32_t>(a.lane / w),
            static_cast<std::uint32_t>(a.seq)};
}

double
hierarchyCost(std::uint64_t addr, CpuCoreState &core, Cache &l3,
              const CpuCostParams &p)
{
    if (core.l1.access(addr))
        return p.l1Hit;
    if (core.l2.access(addr))
        return p.l2Hit;
    if (l3.access(addr))
        return p.l3Hit;
    return p.memAccess;
}

double
scalarCost(const kdp::WorkGroupTrace &trace, CpuCoreState &core, Cache &l3,
           const CpuCostParams &p)
{
    double cycles = 0.0;
    for (const auto &a : trace.accesses) {
        cycles += p.memIssue + hierarchyCost(a.addr, core, l3, p);
        if (a.space == kdp::MemSpace::Scratchpad)
            cycles += p.scratchLowerExtra;
    }
    cycles += static_cast<double>(trace.totalFlops()) * p.aluOp;
    return cycles;
}

double
vectorCost(const kdp::WorkGroupTrace &trace,
           const kdp::VariantTraits &traits, CpuCoreState &core, Cache &l3,
           const CpuCostParams &p)
{
    const unsigned w = traits.vectorWidth;

    std::unordered_map<OpKey, std::vector<std::uint32_t>, OpKeyHash> ops;
    ops.reserve(trace.accesses.size() / w + 1);
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        const auto &a = trace.accesses[i];
        ops[keyOf(a, w)].push_back(i);
    }

    std::vector<bool> emitted(trace.accesses.size(), false);
    double cycles = 0.0;
    std::vector<std::uint64_t> addrs;
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        if (emitted[i])
            continue;
        const auto &a = trace.accesses[i];
        const auto &members = ops[keyOf(a, w)];
        addrs.clear();
        for (std::uint32_t m : members) {
            emitted[m] = true;
            addrs.push_back(trace.accesses[m].addr);
        }
        if (a.space == kdp::MemSpace::Scratchpad)
            cycles += p.scratchLowerExtra
                      * static_cast<double>(members.size());
        std::sort(addrs.begin(), addrs.end());

        bool broadcast = true;
        for (std::size_t k = 1; broadcast && k < addrs.size(); ++k)
            broadcast = addrs[k] == addrs[0];

        bool contiguous = addrs.size() == w;
        for (std::size_t k = 1; contiguous && k < addrs.size(); ++k)
            contiguous = addrs[k] - addrs[k - 1] == a.bytes;

        if (broadcast) {
            cycles += p.memIssue + hierarchyCost(addrs[0], core, l3, p);
        } else if (contiguous) {
            const std::uint64_t line = core.l1.lineSize();
            double worst = 0.0;
            std::uint64_t prev_line = ~std::uint64_t{0};
            for (std::uint64_t addr : addrs) {
                const std::uint64_t ln = addr / line;
                if (ln == prev_line)
                    continue;
                prev_line = ln;
                worst = std::max(worst,
                                 hierarchyCost(addr, core, l3, p));
            }
            cycles += p.memIssue + worst;
        } else {
            double sum = 0.0;
            for (std::uint64_t addr : addrs)
                sum += hierarchyCost(addr, core, l3, p);
            cycles += p.memIssue * addrs.size()
                      + sum * (p.gatherFactor
                               + p.gatherWidthFactor
                                     * static_cast<double>(w));
        }
    }

    std::unordered_map<OpKey, std::pair<bool, bool>, OpKeyHash> branch;
    branch.reserve(trace.branches.size() / w + 1);
    for (const auto &b : trace.branches) {
        auto &[saw_taken, saw_not] = branch[{b.lane / w, b.seq}];
        (b.taken ? saw_taken : saw_not) = true;
    }
    std::uint64_t divergent = 0;
    for (const auto &[key, outcome] : branch)
        if (outcome.first && outcome.second)
            ++divergent;
    cycles += static_cast<double>(divergent) * p.divergeMaskCost
              * static_cast<double>(w) * static_cast<double>(w) / 4.0;

    cycles += static_cast<double>(trace.totalFlops()) * p.aluOp
              / static_cast<double>(w);
    return cycles;
}

double
cpuWorkGroupCycles(const kdp::WorkGroupTrace &trace,
                   const kdp::VariantTraits &traits, CpuCoreState &core,
                   Cache &l3, const CpuCostParams &params)
{
    double cycles = traits.vectorWidth <= 1
                        ? scalarCost(trace, core, l3, params)
                        : vectorCost(trace, traits, core, l3, params);
    if (traits.softwarePrefetch)
        cycles += params.prefetchOverhead
                  * static_cast<double>(trace.accesses.size());
    return cycles;
}

GpuWgCost
gpuWorkGroupCost(const kdp::WorkGroupTrace &trace,
                 const kdp::VariantTraits &traits, std::uint32_t groupSize,
                 GpuSmState &sm, Cache &l2, const GpuCostParams &p)
{
    const unsigned w = p.warpSize;
    const unsigned num_warps = (groupSize + w - 1) / w;

    std::unordered_map<OpKey, std::vector<std::uint32_t>, OpKeyHash> ops;
    ops.reserve(trace.accesses.size() / w + 1);
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        const auto &a = trace.accesses[i];
        ops[keyOf(a, w)].push_back(i);
    }

    std::vector<double> warp_thruput(num_warps, 0.0);
    std::vector<double> warp_latency(num_warps, 0.0);

    std::vector<bool> emitted(trace.accesses.size(), false);
    std::vector<std::uint64_t> segs;
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        if (emitted[i])
            continue;
        const auto &first = trace.accesses[i];
        const unsigned warp = first.lane / w;
        const auto &members = ops[keyOf(first, w)];

        double thruput = p.issueOp;
        double latency = 0.0;
        switch (first.space) {
          case kdp::MemSpace::Global: {
            segs.clear();
            bool any_atomic = false;
            for (std::uint32_t m : members) {
                emitted[m] = true;
                segs.push_back(trace.accesses[m].addr / p.segmentBytes);
                any_atomic |= trace.accesses[m].atomic;
            }
            std::sort(segs.begin(), segs.end());
            segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
            bool all_hit = true;
            for (std::uint64_t s : segs) {
                const bool hit = l2.access(s * p.segmentBytes);
                all_hit &= hit;
                thruput += hit ? p.txHitCost : p.txCost;
            }
            latency += all_hit ? p.l2HitLatency : p.memLatency;
            if (any_atomic)
                thruput += p.atomicPerLane
                           * static_cast<double>(members.size());
            break;
          }
          case kdp::MemSpace::Texture: {
            segs.clear();
            for (std::uint32_t m : members) {
                emitted[m] = true;
                segs.push_back(trace.accesses[m].addr / 32);
            }
            std::sort(segs.begin(), segs.end());
            segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
            bool all_hit = true;
            for (std::uint64_t s : segs) {
                const bool hit = sm.texCache.access(s * 32);
                all_hit &= hit;
                thruput += p.texHit;
                if (!hit)
                    thruput += p.texMissExtra;
            }
            if (!all_hit)
                latency += p.texMissLatency;
            break;
          }
          case kdp::MemSpace::Scratchpad: {
            std::unordered_map<unsigned, unsigned> bank_count;
            std::unordered_set<std::uint64_t> distinct;
            for (std::uint32_t m : members) {
                emitted[m] = true;
                const std::uint64_t addr = trace.accesses[m].addr;
                if (distinct.insert(addr).second)
                    ++bank_count[(addr / 4) % 32];
            }
            unsigned worst = 1;
            for (const auto &[bank, cnt] : bank_count)
                worst = std::max(worst, cnt);
            thruput += p.scratchAccess
                       + static_cast<double>(worst - 1)
                             * p.bankConflictExtra;
            break;
          }
          case kdp::MemSpace::Constant: {
            std::unordered_set<std::uint64_t> distinct;
            for (std::uint32_t m : members) {
                emitted[m] = true;
                distinct.insert(trace.accesses[m].addr);
            }
            thruput += p.constCost * static_cast<double>(distinct.size());
            break;
          }
        }
        warp_thruput[warp] += thruput;
        warp_latency[warp] += latency;
    }

    std::unordered_map<OpKey, std::pair<bool, bool>, OpKeyHash> branch;
    branch.reserve(trace.branches.size() / w + 1);
    for (const auto &b : trace.branches) {
        auto &[saw_taken, saw_not] = branch[{b.lane / w, b.seq}];
        (b.taken ? saw_taken : saw_not) = true;
    }
    for (const auto &[key, outcome] : branch)
        if (outcome.first && outcome.second)
            warp_thruput[key.laneGroup] += p.divergentBranch;

    for (unsigned warp = 0; warp < num_warps; ++warp) {
        std::uint64_t worst = 0;
        const std::uint32_t lo = warp * w;
        const std::uint32_t hi =
            std::min<std::uint32_t>(groupSize, lo + w);
        for (std::uint32_t lane = lo; lane < hi; ++lane)
            worst = std::max(worst, trace.laneFlops[lane]);
        warp_thruput[warp] += static_cast<double>(worst) * p.aluOp;
    }

    GpuWgCost cost;
    for (unsigned warp = 0; warp < num_warps; ++warp) {
        cost.throughputCycles += warp_thruput[warp];
        cost.latencyCycles += warp_latency[warp];
    }
    cost.latencyCycles /= p.mlpFactor;
    if (traits.softwarePrefetch)
        cost.latencyCycles *= p.prefetchLatencyFactor;
    const double overlap =
        std::min<double>(num_warps, p.warpSchedulers);
    cost.throughputCycles /= overlap;
    cost.latencyCycles /= overlap;
    cost.throughputCycles +=
        static_cast<double>(trace.barriers) * p.barrierCost;
    return cost;
}

} // namespace oracle

namespace {

/** Buffers in every memory space the random kernels draw from. */
struct Buffers
{
    kdp::Buffer<float> global{2048, kdp::MemSpace::Global, "global"};
    kdp::Buffer<float> texture{2048, kdp::MemSpace::Texture, "texture"};
    kdp::Buffer<float> constant{128, kdp::MemSpace::Constant, "constant"};
    kdp::Buffer<int> counters{16, kdp::MemSpace::Global, "counters"};
};

/** Order in which lanes take turns issuing their operations. */
enum class Interleave { OpMajor, LaneMajor, Random };

/**
 * Record one random kernel body through @p g: @p slots operation slots
 * per lane, each a load/store/atomic/wide load in some memory space
 * and addressing pattern, or a branch.  Lanes skip slots at random,
 * so per-lane counts (and hence seq ranges) differ.
 */
void
recordBody(kdp::GroupCtx &g, Buffers &b, std::mt19937_64 &rng,
           unsigned slots, Interleave order)
{
    const std::uint32_t lanes = g.groupSize();
    auto scratch = g.allocLocal<float>(lanes * 4 + 64);

    enum class Kind { Global, Texture, Constant, Scratch, Atomic, Span,
                      Store, Branch };
    enum class Pattern { Contiguous, Reversed, Strided, Random,
                         Broadcast };
    struct Slot
    {
        Kind kind;
        Pattern pattern;
        std::uint32_t base;
        std::uint32_t stride;
        std::uint32_t span;
        double activeProb;
        double takenProb;
    };
    std::vector<Slot> plan(slots);
    for (auto &s : plan) {
        s.kind = static_cast<Kind>(rng() % 8);
        s.pattern = static_cast<Pattern>(rng() % 5);
        s.base = static_cast<std::uint32_t>(rng() % 64);
        s.stride = 1 + static_cast<std::uint32_t>(rng() % 33);
        s.span = 1 + static_cast<std::uint32_t>(rng() % 4);
        s.activeProb = rng() % 3 == 0 ? 0.6 : 1.0;
        const double taken[] = {0.0, 1.0, 0.5, 0.1};
        s.takenProb = taken[rng() % 4];
    }

    auto index = [&](const Slot &s, std::uint32_t lane,
                     std::uint64_t n) -> std::uint64_t {
        switch (s.pattern) {
          case Pattern::Contiguous: return (s.base + lane) % n;
          case Pattern::Reversed: return (s.base + lanes - 1 - lane) % n;
          case Pattern::Strided:
            return (s.base + std::uint64_t{lane} * s.stride) % n;
          case Pattern::Random: return rng() % n;
          case Pattern::Broadcast: return s.base % n;
        }
        return 0;
    };

    std::uniform_real_distribution<double> coin(0.0, 1.0);
    auto issue = [&](std::uint32_t lane, const Slot &s) {
        if (coin(rng) >= s.activeProb)
            return;
        switch (s.kind) {
          case Kind::Global:
            g.load(b.global, index(s, lane, b.global.size()), lane);
            break;
          case Kind::Texture:
            g.load(b.texture, index(s, lane, b.texture.size()), lane);
            break;
          case Kind::Constant:
            g.load(b.constant, index(s, lane, b.constant.size()), lane);
            break;
          case Kind::Scratch:
            if (rng() % 2)
                scratch.set(g, index(s, lane, scratch.size()), 1.0f, lane);
            else
                scratch.get(g, index(s, lane, scratch.size()), lane);
            break;
          case Kind::Atomic:
            g.atomicAdd(b.counters, index(s, lane, b.counters.size()), 1,
                        lane);
            break;
          case Kind::Span: {
            float tmp[4];
            const std::uint64_t i =
                index(s, lane, b.global.size() - s.span + 1);
            g.loadSpan(b.global, i, s.span, lane, tmp);
            break;
          }
          case Kind::Store:
            g.store(b.global, index(s, lane, b.global.size()), 2.0f,
                    lane);
            break;
          case Kind::Branch:
            g.branch(lane, coin(rng) < s.takenProb);
            break;
        }
        g.flops(lane, rng() % 16);
    };

    switch (order) {
      case Interleave::OpMajor:
        for (const Slot &s : plan)
            for (std::uint32_t lane = 0; lane < lanes; ++lane)
                issue(lane, s);
        break;
      case Interleave::LaneMajor:
        for (std::uint32_t lane = 0; lane < lanes; ++lane)
            for (const Slot &s : plan)
                issue(lane, s);
        break;
      case Interleave::Random: {
        std::vector<unsigned> next(lanes, 0);
        std::vector<std::uint32_t> live(lanes);
        for (std::uint32_t lane = 0; lane < lanes; ++lane)
            live[lane] = lane;
        while (!live.empty()) {
            const std::size_t pick = rng() % live.size();
            const std::uint32_t lane = live[pick];
            issue(lane, plan[next[lane]]);
            if (++next[lane] == slots) {
                live[pick] = live.back();
                live.pop_back();
            }
        }
        break;
      }
    }
    if (rng() % 2)
        g.barrier();
}

/**
 * A random work-group trace for @p lanes work-items.  With @p fused,
 * two or three member bodies record into one trace through
 * GroupCtx::restart, so every member's seq restarts at 0.
 */
kdp::WorkGroupTrace
randomTrace(std::uint32_t lanes, bool fused, Buffers &b,
            std::mt19937_64 &rng)
{
    kdp::WorkGroupTrace t;
    t.reset(lanes);
    kdp::GroupCtx g(rng() % 8, lanes, 1, &t);
    const unsigned members = fused ? 2 + rng() % 2 : 1;
    for (unsigned m = 0; m < members; ++m) {
        if (m != 0)
            g.restart(m);
        recordBody(g, b, rng, 1 + rng() % 12,
                   static_cast<Interleave>(rng() % 3));
    }
    return t;
}

/**
 * Trace with @p lanes work-items that only records branches; lanes
 * skip some, and with @p fused a second member records through the
 * same context, restarted.
 */
kdp::WorkGroupTrace
branchOnlyTrace(std::uint32_t lanes, std::mt19937_64 &rng,
                bool fused = false)
{
    kdp::WorkGroupTrace t;
    t.reset(lanes);
    kdp::GroupCtx g(0, lanes, 1, &t);
    for (unsigned m = 0; m < (fused ? 2u : 1u); ++m) {
        if (m != 0)
            g.restart(m);
        const unsigned rounds = 1 + rng() % 6;
        for (unsigned k = 0; k < rounds; ++k)
            for (std::uint32_t lane = 0; lane < lanes; ++lane)
                if (rng() % 5 != 0)
                    g.branch(lane, rng() % 3 == 0);
    }
    return t;
}

/** A spread of addresses for contains() probes. */
std::vector<std::uint64_t>
probeAddrs(const std::vector<kdp::WorkGroupTrace> &traces)
{
    std::vector<std::uint64_t> probes;
    for (const auto &t : traces)
        for (const auto &a : t.accesses)
            probes.push_back(a.addr);
    return probes;
}

void
expectSameCache(const Cache &got, const Cache &want,
                const std::vector<std::uint64_t> &probes)
{
    EXPECT_EQ(got.accesses(), want.accesses());
    EXPECT_EQ(got.misses(), want.misses());
    for (std::uint64_t addr : probes)
        ASSERT_EQ(got.contains(addr), want.contains(addr)) << addr;
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** Small caches so the random traces also exercise eviction. */
CpuConfig
smallCpu()
{
    CpuConfig cfg;
    cfg.l1 = {1024, 2, 64};
    cfg.l2 = {4096, 4, 64};
    cfg.l3 = {16384, 4, 64};
    return cfg;
}

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.l2 = {8192, 4, 128};
    cfg.tex = {1024, 4, 32};
    return cfg;
}

/** Mix of random, fused, branch-only and empty traces. */
std::vector<kdp::WorkGroupTrace>
traceMix(std::uint32_t lanes, Buffers &b, std::mt19937_64 &rng)
{
    std::vector<kdp::WorkGroupTrace> traces;
    for (unsigned i = 0; i < 24; ++i)
        traces.push_back(randomTrace(lanes, i % 3 == 2, b, rng));
    traces.push_back(branchOnlyTrace(lanes, rng));
    kdp::WorkGroupTrace empty;
    empty.reset(lanes);
    empty.laneFlops[0] = 7;
    traces.push_back(empty);
    std::shuffle(traces.begin(), traces.end(), rng);
    return traces;
}

} // namespace

class CpuCostModelEquiv
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint32_t>>
{};

TEST_P(CpuCostModelEquiv, MatchesHashMapReplayBitForBit)
{
    const auto [width, lanes] = GetParam();
    Buffers b;
    std::mt19937_64 rng(width * 1000 + lanes);
    const auto traces = traceMix(lanes, b, rng);
    const auto probes = probeAddrs(traces);

    for (const CpuConfig &cfg : {CpuConfig{}, smallCpu()}) {
        CpuCoreState core(cfg.l1, cfg.l2), ref_core(cfg.l1, cfg.l2);
        Cache l3(cfg.l3), ref_l3(cfg.l3);
        for (std::size_t i = 0; i < traces.size(); ++i) {
            kdp::VariantTraits traits;
            traits.vectorWidth = width;
            traits.softwarePrefetch = i % 4 == 1;
            const double got =
                cpuWorkGroupCycles(traces[i], traits, core, l3, cfg.cost);
            const double want = oracle::cpuWorkGroupCycles(
                traces[i], traits, ref_core, ref_l3, cfg.cost);
            ASSERT_EQ(bits(got), bits(want))
                << "trace " << i << ": " << got << " vs " << want;
        }
        expectSameCache(core.l1, ref_core.l1, probes);
        expectSameCache(core.l2, ref_core.l2, probes);
        expectSameCache(l3, ref_l3, probes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndGroups, CpuCostModelEquiv,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u, 8u, 16u),
                       ::testing::Values(16u, 37u, 64u)));

class GpuCostModelEquiv : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(GpuCostModelEquiv, MatchesHashMapReplayBitForBit)
{
    const std::uint32_t lanes = GetParam();
    Buffers b;
    std::mt19937_64 rng(lanes);
    const auto traces = traceMix(lanes, b, rng);
    auto probes = probeAddrs(traces);
    for (std::uint64_t &addr : probes)
        addr -= addr % 32;

    for (const GpuConfig &cfg : {GpuConfig{}, smallGpu()}) {
        GpuSmState sm(cfg.tex), ref_sm(cfg.tex);
        Cache l2(cfg.l2), ref_l2(cfg.l2);
        for (std::size_t i = 0; i < traces.size(); ++i) {
            kdp::VariantTraits traits;
            traits.softwarePrefetch = i % 4 == 1;
            const GpuWgCost got = gpuWorkGroupCost(traces[i], traits, lanes,
                                                   sm, l2, cfg.cost);
            const GpuWgCost want = oracle::gpuWorkGroupCost(
                traces[i], traits, lanes, ref_sm, ref_l2, cfg.cost);
            ASSERT_EQ(bits(got.throughputCycles),
                      bits(want.throughputCycles)) << "trace " << i;
            ASSERT_EQ(bits(got.latencyCycles), bits(want.latencyCycles))
                << "trace " << i;
        }
        expectSameCache(sm.texCache, ref_sm.texCache, probes);
        expectSameCache(l2, ref_l2, probes);
    }
}

// 48 lanes leave the second warp half empty.
INSTANTIATE_TEST_SUITE_P(GroupSizes, GpuCostModelEquiv,
                         ::testing::Values(32u, 48u, 256u));

TEST(CostModelEquiv, BranchOnlyTracesMatch)
{
    std::mt19937_64 rng(5);
    CpuConfig ccfg;
    GpuConfig gcfg;
    for (std::uint32_t lanes : {16u, 37u, 48u, 256u}) {
        std::vector<kdp::WorkGroupTrace> traces;
        for (unsigned i = 0; i < 8; ++i)
            traces.push_back(branchOnlyTrace(lanes, rng, i % 2 == 1));
        for (unsigned width : {2u, 3u, 6u, 8u, 16u}) {
            CpuCoreState core(ccfg.l1, ccfg.l2), ref_core(ccfg.l1, ccfg.l2);
            Cache l3(ccfg.l3), ref_l3(ccfg.l3);
            kdp::VariantTraits traits;
            traits.vectorWidth = width;
            for (const auto &t : traces)
                ASSERT_EQ(bits(cpuWorkGroupCycles(t, traits, core, l3,
                                                  ccfg.cost)),
                          bits(oracle::cpuWorkGroupCycles(
                              t, traits, ref_core, ref_l3, ccfg.cost)))
                    << lanes << " lanes, width " << width;
        }
        GpuSmState sm(gcfg.tex), ref_sm(gcfg.tex);
        Cache l2(gcfg.l2), ref_l2(gcfg.l2);
        for (const auto &t : traces) {
            const GpuWgCost got = gpuWorkGroupCost(t, {}, lanes, sm, l2,
                                                   gcfg.cost);
            const GpuWgCost want = oracle::gpuWorkGroupCost(
                t, {}, lanes, ref_sm, ref_l2, gcfg.cost);
            ASSERT_EQ(bits(got.throughputCycles),
                      bits(want.throughputCycles)) << lanes << " lanes";
            ASSERT_EQ(bits(got.latencyCycles), bits(want.latencyCycles))
                << lanes << " lanes";
        }
    }
}

TEST(CostModelEquiv, HandBuiltTraceMatches)
{
    // A trace assembled without GroupCtx: ops with members out of
    // lane order, mixed widths, an atomic in the middle of an op, a
    // lane group that only branches, and rows set as GroupCtx would.
    kdp::WorkGroupTrace t;
    t.reset(6);
    using kdp::MemAccess;
    using kdp::MemSpace;
    t.accesses = {
        MemAccess{0x1008, 1, 0, 4, MemSpace::Global, false, false},
        MemAccess{0x1004, 0, 0, 4, MemSpace::Global, false, false},
        MemAccess{0x100c, 2, 0, 4, MemSpace::Global, true, true},
        MemAccess{0x2000, 0, 1, 8, MemSpace::Texture, false, false},
        MemAccess{0x2000, 2, 1, 8, MemSpace::Texture, false, false},
        MemAccess{0x3000, 1, 1, 16, MemSpace::Constant, false, false},
        MemAccess{0x0008'0000'0000'0040, 0, 2, 4, MemSpace::Scratchpad,
                  true, false},
        MemAccess{0x0008'0000'0000'00c0, 1, 2, 4, MemSpace::Scratchpad,
                  false, false},
    };
    t.laneAccessRows = {3, 3, 2, 0, 0, 0};
    t.branches = {{4, 0, true}, {5, 0, false}, {4, 1, true},
                  {0, 0, false}, {1, 0, false}};
    t.laneBranchRows = {1, 1, 0, 0, 2, 1};
    t.laneFlops = {3, 1, 4, 1, 5, 9};
    t.barriers = 1;

    CpuConfig ccfg = smallCpu();
    for (unsigned width : {2u, 3u, 6u}) {
        CpuCoreState core(ccfg.l1, ccfg.l2), ref_core(ccfg.l1, ccfg.l2);
        Cache l3(ccfg.l3), ref_l3(ccfg.l3);
        kdp::VariantTraits traits;
        traits.vectorWidth = width;
        for (int rep = 0; rep < 2; ++rep)
            ASSERT_EQ(bits(cpuWorkGroupCycles(t, traits, core, l3,
                                              ccfg.cost)),
                      bits(oracle::cpuWorkGroupCycles(t, traits, ref_core,
                                                      ref_l3, ccfg.cost)))
                << "width " << width;
    }
    GpuConfig gcfg = smallGpu();
    gcfg.cost.warpSize = 4;
    GpuSmState sm(gcfg.tex), ref_sm(gcfg.tex);
    Cache l2(gcfg.l2), ref_l2(gcfg.l2);
    const GpuWgCost got = gpuWorkGroupCost(t, {}, 6, sm, l2, gcfg.cost);
    const GpuWgCost want =
        oracle::gpuWorkGroupCost(t, {}, 6, ref_sm, ref_l2, gcfg.cost);
    EXPECT_EQ(bits(got.throughputCycles), bits(want.throughputCycles));
    EXPECT_EQ(bits(got.latencyCycles), bits(want.latencyCycles));
}

TEST(CostModelEquivDeath, SparseSeqPanics)
{
    // seq must count each lane's events densely; a gap means the op
    // table would outgrow the trace.
    kdp::WorkGroupTrace t;
    t.reset(4);
    t.accesses.push_back(
        kdp::MemAccess{64, 0, 0, 4, kdp::MemSpace::Global, false, false});
    t.accesses.push_back(
        kdp::MemAccess{68, 1, 5, 4, kdp::MemSpace::Global, false, false});
    t.laneAccessRows = {1, 6, 0, 0};
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    traits.vectorWidth = 4;
    EXPECT_DEATH(cpuWorkGroupCycles(t, traits, core, l3, cfg.cost), "seq");
}

TEST(CostModelEquivDeath, SeqPastRecordedRowsPanics)
{
    // The rows say lane 1 made one access; an event with seq 1 lies
    // past them.
    kdp::WorkGroupTrace t;
    t.reset(2);
    t.accesses.push_back(
        kdp::MemAccess{64, 0, 0, 4, kdp::MemSpace::Global, false, false});
    t.accesses.push_back(
        kdp::MemAccess{68, 1, 1, 4, kdp::MemSpace::Global, false, false});
    t.laneAccessRows = {1, 1};
    GpuConfig cfg;
    GpuSmState sm(cfg.tex);
    Cache l2(cfg.l2);
    EXPECT_DEATH(gpuWorkGroupCost(t, {}, 2, sm, l2, cfg.cost), "seq");
}

TEST(CostModelEquivDeath, BranchPastRecordedRowsPanics)
{
    kdp::WorkGroupTrace t;
    t.reset(4);
    t.branches = {{0, 0, true}, {1, 2, false}};
    t.laneBranchRows = {1, 1, 0, 0};
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    traits.vectorWidth = 2;
    EXPECT_DEATH(cpuWorkGroupCycles(t, traits, core, l3, cfg.cost), "seq");
}

TEST(CostModelEquivDeath, TraceWithoutRowsPanics)
{
    // Events whose lanes have no recorded rows at all.
    kdp::WorkGroupTrace t;
    t.accesses.push_back(
        kdp::MemAccess{64, 0, 0, 4, kdp::MemSpace::Global, false, false});
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    traits.vectorWidth = 4;
    EXPECT_DEATH(cpuWorkGroupCycles(t, traits, core, l3, cfg.cost),
                 "recorded lanes");
}

TEST(CostModelAllocs, WarmReplayDoesNotAllocate)
{
    Buffers b;
    std::mt19937_64 rng(11);
    const auto cpu_traces = traceMix(64, b, rng);
    const auto gpu_traces = traceMix(256, b, rng);
    CpuConfig ccfg;
    CpuCoreState core(ccfg.l1, ccfg.l2);
    Cache l3(ccfg.l3);
    GpuConfig gcfg;
    GpuSmState sm(gcfg.tex);
    Cache l2(gcfg.l2);
    kdp::VariantTraits traits;
    traits.vectorWidth = 8;

    double sink = 0.0;
    auto replayAll = [&] {
        for (const auto &t : cpu_traces)
            sink += cpuWorkGroupCycles(t, traits, core, l3, ccfg.cost);
        for (const auto &t : gpu_traces)
            sink += gpuWorkGroupCost(t, traits, 256, sm, l2, gcfg.cost)
                        .throughputCycles;
    };
    replayAll(); // grows the scratch to the largest trace
    tlAllocCount = 0;
    tlCountAllocs = true;
    replayAll();
    tlCountAllocs = false;
    EXPECT_EQ(tlAllocCount, 0u);
    EXPECT_GT(sink, 0.0);
}
