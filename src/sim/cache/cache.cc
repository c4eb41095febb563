#include "cache.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/math_util.hh"

namespace dysel {
namespace sim {

Cache::Cache(const CacheConfig &cfg)
    : line(cfg.lineBytes), numWays(cfg.ways)
{
    using support::isPowerOfTwo;
    // Lines of two bytes or more keep every tag below invalidTag.
    if (!isPowerOfTwo(cfg.lineBytes) || cfg.lineBytes < 2)
        support::panic("cache line size must be a power of two of at "
                       "least 2 bytes");
    if (cfg.ways == 0 || cfg.sizeBytes == 0)
        support::panic("cache needs nonzero size and ways");
    lineShift = support::floorLog2(cfg.lineBytes);
    sets = cfg.sizeBytes / (static_cast<std::uint64_t>(cfg.ways) * line);
    if (sets == 0)
        sets = 1;
    if (!isPowerOfTwo(sets))
        support::panic("cache set count must be a power of two "
                       "(size/ways/line = %llu)",
                       (unsigned long long)sets);
    tags.assign(sets * numWays, invalidTag);
}

void
Cache::flush()
{
    std::fill(tags.begin(), tags.end(), invalidTag);
}

void
Cache::resetStats()
{
    nAccess = 0;
    nMiss = 0;
}

} // namespace sim
} // namespace dysel
