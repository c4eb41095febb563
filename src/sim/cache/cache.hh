/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Used by the CPU device (L1/L2 per core, shared L3) and the GPU
 * device (shared L2, per-SM texture cache).  Purely a hit/miss
 * predictor over addresses; latencies are charged by the cost models.
 *
 * Each set keeps its tags alone, most recently used first, with ~0 in
 * invalid ways (a tag is an address shifted right by the line bits,
 * so it never reaches ~0).  A hit moves its tag to the front; a miss
 * shifts the set down one way, dropping the last, and puts the new
 * tag in front.  Invalid ways only ever sit at the back, so a miss
 * fills one of them while any is left and otherwise evicts the least
 * recently used tag: exactly LRU, with no timestamps.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace dysel {
namespace sim {

/** Geometry of a cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes;  ///< total capacity
    unsigned ways;            ///< associativity
    unsigned lineBytes;       ///< line size (power of two, >= 2)
};

/** An LRU set-associative cache of tags. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr.
     * @return true on hit, false on miss (the line is filled).
     */
    bool
    access(std::uint64_t addr)
    {
        ++nAccess;
        const std::uint64_t tag = addr >> lineShift;
        std::uint64_t *set = &tags[(tag & (sets - 1)) * numWays];
        unsigned w = 0;
        while (w < numWays && set[w] != tag)
            ++w;
        const bool hit = w < numWays;
        if (!hit) {
            ++nMiss;
            w = numWays - 1;
        }
        for (; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = tag;
        return hit;
    }

    /** True if the line containing @p addr is currently resident. */
    bool
    contains(std::uint64_t addr) const
    {
        const std::uint64_t tag = addr >> lineShift;
        const std::uint64_t *set = &tags[(tag & (sets - 1)) * numWays];
        for (unsigned w = 0; w < numWays; ++w)
            if (set[w] == tag)
                return true;
        return false;
    }

    /** Drop all contents. */
    void flush();

    /** Line size in bytes. */
    unsigned lineSize() const { return line; }

    /** Number of sets. */
    std::uint64_t numSets() const { return sets; }

    /** Accesses so far. */
    std::uint64_t accesses() const { return nAccess; }

    /** Misses so far. */
    std::uint64_t misses() const { return nMiss; }

    /** Miss ratio; 0 when no accesses. */
    double missRatio() const
    {
        return nAccess == 0 ? 0.0
                            : static_cast<double>(nMiss)
                                  / static_cast<double>(nAccess);
    }

    /** Reset statistics (contents are kept). */
    void resetStats();

  private:
    static constexpr std::uint64_t invalidTag = ~std::uint64_t{0};

    unsigned line;
    unsigned lineShift;
    std::uint64_t sets;
    unsigned numWays;
    std::vector<std::uint64_t> tags; ///< sets * numWays, MRU first per set
    std::uint64_t nAccess = 0;
    std::uint64_t nMiss = 0;
};

} // namespace sim
} // namespace dysel
