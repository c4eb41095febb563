/**
 * @file
 * Unit and property tests for the set-associative cache model,
 * including a differential test against a frozen copy of the original
 * timestamp-LRU implementation.
 */
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <vector>

#include "sim/cache/cache.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"

using namespace dysel::sim;

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 2, 64});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64B line
    EXPECT_FALSE(c.access(0x140)); // next line
}

TEST(Cache, LruEviction)
{
    // Direct-mapped-ish: 2 ways, line 64, 128 bytes total = 1 set.
    Cache c({128, 2, 64});
    EXPECT_EQ(c.numSets(), 1u);
    c.access(0x0000);
    c.access(0x1000);
    EXPECT_TRUE(c.access(0x0000));  // refresh LRU of line 0
    c.access(0x2000);               // evicts 0x1000 (LRU)
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x1000)); // was evicted
}

TEST(Cache, SetIndexingSeparatesLines)
{
    Cache c({4096, 1, 64}); // 64 sets, direct mapped
    // Two addresses in different sets never evict each other.
    c.access(0x0000);
    c.access(0x0040);
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_TRUE(c.access(0x0040));
}

TEST(Cache, FlushDropsEverything)
{
    Cache c({1024, 2, 64});
    c.access(0x100);
    ASSERT_TRUE(c.contains(0x100));
    c.flush();
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, StatsCount)
{
    Cache c({1024, 2, 64});
    c.access(0x0);
    c.access(0x0);
    c.access(0x40);
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_NEAR(c.missRatio(), 2.0 / 3.0, 1e-12);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0x0)); // contents survive stat reset
}

TEST(Cache, WorkingSetLargerThanCapacityMisses)
{
    Cache c({1024, 4, 64}); // 16 lines capacity
    // Stream 64 distinct lines twice: second pass still misses
    // (capacity evictions).
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t line = 0; line < 64; ++line)
            c.access(line * 64);
    EXPECT_GT(c.missRatio(), 0.9);
}

TEST(Cache, WorkingSetFittingCapacityHitsOnSecondPass)
{
    Cache c({4096, 4, 64}); // 64 lines capacity
    for (std::uint64_t line = 0; line < 32; ++line)
        c.access(line * 64);
    c.resetStats();
    for (std::uint64_t line = 0; line < 32; ++line)
        c.access(line * 64);
    EXPECT_EQ(c.misses(), 0u);
}

/** Property sweep: geometry invariants across configurations. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, SequentialStreamMissesOncePerLine)
{
    const auto [size_kb, ways, line] = GetParam();
    Cache c({static_cast<std::uint64_t>(size_kb) * 1024,
             static_cast<unsigned>(ways), static_cast<unsigned>(line)});
    const std::uint64_t bytes = 8 * 1024;
    for (std::uint64_t a = 0; a < bytes; a += 4)
        c.access(a);
    // One miss per distinct line, no conflict misses on a pure
    // sequential stream (when capacity >= stream or LRU keeps order).
    EXPECT_EQ(c.misses(), bytes / line);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(32, 8, 64),
                      std::make_tuple(16, 4, 64),
                      std::make_tuple(8, 2, 32),
                      std::make_tuple(64, 16, 128),
                      std::make_tuple(256, 8, 64)));

TEST(CacheDeath, RejectsNonPowerOfTwoLine)
{
    EXPECT_DEATH(Cache({1024, 2, 48}), "");
}

TEST(CacheDeath, RejectsOneByteLine)
{
    EXPECT_DEATH(Cache({1024, 2, 1}), "at least 2 bytes");
}

namespace oracle {

/**
 * The original cache: each way holds a tag, a valid flag and a
 * last-use timestamp; a miss fills an invalid way if there is one and
 * otherwise evicts the way with the oldest timestamp.
 */
class StampCache
{
  public:
    explicit StampCache(const CacheConfig &cfg)
        : line(cfg.lineBytes), numWays(cfg.ways)
    {
        lineShift = 0;
        while ((1u << lineShift) < line)
            ++lineShift;
        sets = cfg.sizeBytes / (static_cast<std::uint64_t>(cfg.ways) * line);
        if (sets == 0)
            sets = 1;
        waysStore.resize(sets * numWays);
    }

    bool
    access(std::uint64_t addr)
    {
        ++nAccess;
        ++tick;
        const std::uint64_t set = (addr >> lineShift) & (sets - 1);
        const std::uint64_t tag = addr >> lineShift;
        Way *base = &waysStore[set * numWays];

        Way *victim = base;
        for (unsigned w = 0; w < numWays; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = tick;
                return true;
            }
            if (!way.valid) {
                victim = &way;
            } else if (victim->valid && way.lastUse < victim->lastUse) {
                victim = &way;
            }
        }

        ++nMiss;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = tick;
        return false;
    }

    bool
    contains(std::uint64_t addr) const
    {
        const std::uint64_t set = (addr >> lineShift) & (sets - 1);
        const std::uint64_t tag = addr >> lineShift;
        const Way *base = &waysStore[set * numWays];
        for (unsigned w = 0; w < numWays; ++w)
            if (base[w].valid && base[w].tag == tag)
                return true;
        return false;
    }

    void
    flush()
    {
        for (auto &w : waysStore)
            w = Way{};
    }

    void
    resetStats()
    {
        nAccess = 0;
        nMiss = 0;
    }

    std::uint64_t accesses() const { return nAccess; }
    std::uint64_t misses() const { return nMiss; }
    std::uint64_t numSets() const { return sets; }

  private:
    struct Way
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned line;
    unsigned lineShift;
    std::uint64_t sets;
    unsigned numWays;
    std::vector<Way> waysStore;
    std::uint64_t tick = 0;
    std::uint64_t nAccess = 0;
    std::uint64_t nMiss = 0;
};

} // namespace oracle

namespace {

/** A named cache geometry. */
struct Geometry
{
    const char *name;
    CacheConfig cfg;
};

/** Every geometry the simulated devices use, plus the degenerate ones. */
std::vector<Geometry>
repoGeometries()
{
    const CpuConfig cpu;
    const GpuConfig gpu;
    return {
        {"cpu-l1", cpu.l1},
        {"cpu-l2", cpu.l2},
        {"cpu-l3", cpu.l3},
        {"gpu-l2", gpu.l2},
        {"gpu-tex", gpu.tex},
        {"one-set", {512, 8, 64}},
        {"one-way", {4096, 1, 64}},
    };
}

/**
 * Next address of a seeded stream that mixes set-conflict storms,
 * uniform traffic over twice the capacity, short sequential runs and
 * re-references of recent addresses.
 */
class AddressStream
{
  public:
    AddressStream(const CacheConfig &cfg, std::uint64_t sets,
                  std::uint64_t seed)
        : cfg(cfg), sets(sets), rng(seed)
    {}

    std::uint64_t
    next()
    {
        std::uint64_t addr = 0;
        switch (rng() % 4) {
          case 0: {
            // A few sets, twice as many tags per set as there are ways.
            const std::uint64_t set = rng() % std::min<std::uint64_t>(sets, 4);
            const std::uint64_t tag = rng() % (2 * cfg.ways + 1);
            addr = (tag * sets + set) * cfg.lineBytes + rng() % cfg.lineBytes;
            break;
          }
          case 1:
            addr = rng() % (2 * cfg.sizeBytes);
            break;
          case 2:
            cursor += 1 + rng() % 24;
            addr = cursor;
            break;
          case 3:
            addr = recent.empty() ? rng() % cfg.sizeBytes
                                  : recent[rng() % recent.size()];
            break;
        }
        recent.push_back(addr);
        if (recent.size() > 64)
            recent.pop_front();
        return addr;
    }

    std::mt19937_64 &random() { return rng; }

  private:
    CacheConfig cfg;
    std::uint64_t sets;
    std::mt19937_64 rng;
    std::uint64_t cursor = 0;
    std::deque<std::uint64_t> recent;
};

} // namespace

TEST(CacheOracle, MatchesTimestampLruOnEveryGeometry)
{
    for (const Geometry &g : repoGeometries()) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(std::string(g.name) + " seed "
                         + std::to_string(seed));
            Cache got(g.cfg);
            oracle::StampCache want(g.cfg);
            ASSERT_EQ(got.numSets(), want.numSets());
            AddressStream stream(g.cfg, want.numSets(), seed);
            std::mt19937_64 &rng = stream.random();
            for (unsigned i = 0; i < 60000; ++i) {
                const std::uint64_t addr = stream.next();
                ASSERT_EQ(got.access(addr), want.access(addr))
                    << "access " << i << " addr " << addr;
                if (rng() % 8 == 0) {
                    const std::uint64_t probe = stream.next();
                    ASSERT_EQ(got.contains(probe), want.contains(probe))
                        << "probe " << probe;
                }
                const unsigned event = rng() % 20000;
                if (event == 0) {
                    got.flush();
                    want.flush();
                } else if (event == 1) {
                    got.resetStats();
                    want.resetStats();
                }
                if (i % 1000 == 0) {
                    ASSERT_EQ(got.accesses(), want.accesses());
                    ASSERT_EQ(got.misses(), want.misses());
                }
            }
            EXPECT_EQ(got.accesses(), want.accesses());
            EXPECT_EQ(got.misses(), want.misses());
            EXPECT_GT(want.misses(), 0u);
            EXPECT_LT(want.misses(), want.accesses());
        }
    }
}

TEST(CacheOracle, FlushAndResetStatsMatch)
{
    // Deterministic edges: a flush empties every way (the next access
    // to a resident line misses), a stat reset keeps the contents.
    for (const Geometry &g : repoGeometries()) {
        SCOPED_TRACE(g.name);
        Cache got(g.cfg);
        oracle::StampCache want(g.cfg);
        AddressStream stream(g.cfg, want.numSets(), 9);
        std::vector<std::uint64_t> seen;
        for (unsigned i = 0; i < 4000; ++i) {
            seen.push_back(stream.next());
            ASSERT_EQ(got.access(seen.back()), want.access(seen.back()));
        }
        got.resetStats();
        want.resetStats();
        for (std::uint64_t addr : seen)
            ASSERT_EQ(got.contains(addr), want.contains(addr));
        for (std::uint64_t addr : seen)
            ASSERT_EQ(got.access(addr), want.access(addr));
        EXPECT_EQ(got.accesses(), want.accesses());
        EXPECT_EQ(got.misses(), want.misses());
        got.flush();
        want.flush();
        for (std::uint64_t addr : seen)
            ASSERT_FALSE(got.contains(addr));
        for (std::uint64_t addr : seen)
            ASSERT_EQ(got.access(addr), want.access(addr));
        EXPECT_EQ(got.accesses(), want.accesses());
        EXPECT_EQ(got.misses(), want.misses());
    }
}
