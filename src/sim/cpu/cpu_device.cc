#include "cpu_device.hh"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include "kdp/context.hh"
#include "support/logging.hh"

namespace dysel {
namespace sim {

CpuDevice::CpuDevice(const CpuConfig &cfg)
    : Device(cfg.noiseSigma, cfg.noiseRefNs, cfg.seed), config(cfg),
      l3(cfg.l3)
{
    if (cfg.cores == 0 || cfg.cores > 64)
        throw std::invalid_argument("CpuDevice needs 1 to 64 cores");
    idleMask = ~std::uint64_t{0} >> (64 - cfg.cores);
    cores.reserve(cfg.cores);
    for (unsigned i = 0; i < cfg.cores; ++i)
        cores.emplace_back(cfg);
    events.attach(*this);
}

std::string
CpuDevice::fingerprint() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "cpu/%s/c%u@%.2fGHz/l1=%llu/l2=%llu/l3=%llu",
                  config.name.c_str(), config.cores, config.ghz,
                  (unsigned long long)config.l1.sizeBytes,
                  (unsigned long long)config.l2.sizeBytes,
                  (unsigned long long)config.l3.sizeBytes);
    return buf;
}

void
CpuDevice::fire(EventKind kind, std::uint32_t unit)
{
    if (kind == EventKind::LaunchArrive) {
        queue.add(unit);
        kick();
        return;
    }
    // GroupDone.  Mark the core idle before the callbacks run; a
    // finishing launch may unblock its stream for every idle core, so
    // a full kick() (not just this core) is required.
    const Core &core = cores[unit];
    idleMask |= std::uint64_t{1} << unit;
    queue[core.launch].groupDone(core.dur, now());
    kick();
}

void
CpuDevice::kick()
{
    // Lowest idle index first.  A failed pick() leaves the queue unable
    // to serve the next core too, so the first miss ends the pass.
    while (idleMask != 0)
        if (!startNext(static_cast<unsigned>(std::countr_zero(idleMask))))
            return;
}

bool
CpuDevice::startNext(unsigned idx)
{
    Core &core = cores[idx];
    const std::uint32_t slot = queue.pick();
    if (slot == DispatchQueue::none)
        return false;
    ActiveLaunch &al = queue[slot];
    const std::uint64_t grid = al.issue(now());
    idleMask &= ~(std::uint64_t{1} << idx);

    TimeNs dur = runGroup(core, al, grid) + config.taskOverheadNs;
    if (al.timeScale != 1.0)
        dur = static_cast<TimeNs>(static_cast<double>(dur) * al.timeScale);
    dur = addNoise(dur);

    core.launch = slot;
    core.dur = dur;
    events.postAfter(dur, EventKind::GroupDone, idx);
    return true;
}

TimeNs
CpuDevice::runGroup(Core &core, const ActiveLaunch &al, std::uint64_t grid)
{
    const kdp::KernelVariant &variant = *al.launch.variant;
    traceBuf.reset(variant.groupSize);
    kdp::GroupCtx ctx(grid, variant.groupSize, variant.waFactor, &traceBuf);
    variant.fn(ctx, al.launch.args);
    ++nGroups;

    const double cycles = cpuWorkGroupCycles(traceBuf, variant.traits,
                                             core.caches, l3, config.cost);
    return cyclesToNs(cycles, config.ghz);
}

} // namespace sim
} // namespace dysel
