#include "cpu_device.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "kdp/context.hh"
#include "support/logging.hh"

namespace dysel {
namespace sim {

CpuDevice::CpuDevice(const CpuConfig &cfg)
    : config(cfg), l3(cfg.l3), rng(cfg.seed)
{
    if (cfg.cores == 0)
        throw std::invalid_argument("CpuDevice needs at least one core");
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
CpuDevice::submit(Launch launch)
{
    if (launch.numGroups == 0)
        support::panic("CpuDevice::submit with zero work-groups");
    double time_scale = 1.0;
    switch (checkLaunchFault(launch)) {
      case FaultKind::LaunchFail:
        // The launch is dropped after its submission overhead; the
        // runtime observes the aborting fault after run().
        events.postAfter(config.launchOverheadNs, EventKind::Nop);
        return;
      case FaultKind::Hang:
        events.postAfter(
            config.launchOverheadNs + faults->config().hangStallNs,
            EventKind::Nop);
        return;
      case FaultKind::LatencySpike:
        time_scale = faults->config().latencySpikeFactor;
        break;
      default:
        break;
    }
    if (checkVariantFault(launch) == VariantFaultKind::KernelHang) {
        // The variant never finishes; the slice is dropped after the
        // watchdog stall.  The device is not wedged and no aborting
        // fault is raised -- the guard notices the missing completion.
        events.postAfter(
            config.launchOverheadNs + faults->config().variantHangStallNs,
            EventKind::Nop);
        return;
    }
    const std::uint32_t slot = queue.acquire(std::move(launch));
    ActiveLaunch &al = queue[slot];
    al.stats.submitTime = now();
    al.timeScale = time_scale;
    events.postAfter(config.launchOverheadNs, EventKind::LaunchArrive, slot);
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
    Core &core = cores[unit];
    core.busy = false;
    queue[core.launch].groupDone(core.dur, now());
    kick();
}

void
CpuDevice::kick()
{
    for (unsigned i = 0; i < cores.size(); ++i)
        if (!cores[i].busy)
            startNext(i);
}

void
CpuDevice::startNext(unsigned idx)
{
    Core &core = cores[idx];
    const std::uint32_t slot = queue.pick();
    if (slot == DispatchQueue::none) {
        core.busy = false;
        return;
    }
    ActiveLaunch &al = queue[slot];
    const std::uint64_t grid = al.issue(now());
    core.busy = true;

    TimeNs dur = runGroup(core, al, grid) + config.taskOverheadNs;
    if (al.timeScale != 1.0)
        dur = static_cast<TimeNs>(static_cast<double>(dur) * al.timeScale);
    dur = addNoise(dur);

    core.launch = slot;
    core.dur = dur;
    events.postAfter(dur, EventKind::GroupDone, idx);
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

TimeNs
CpuDevice::addNoise(TimeNs d)
{
    if (config.noiseSigma <= 0.0)
        return d;
    // Box-Muller; deterministic through the device RNG.
    const double u1 = std::max(rng.nextDouble(), 1e-12);
    const double u2 = rng.nextDouble();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double ref = static_cast<double>(config.noiseRefNs);
    const double scale =
        std::min(1.0, ref / std::max<double>(1.0, static_cast<double>(d)));
    const double factor =
        std::max(0.2, 1.0 + config.noiseSigma * scale * gauss);
    return static_cast<TimeNs>(static_cast<double>(d) * factor) + 1;
}

} // namespace sim
} // namespace dysel
