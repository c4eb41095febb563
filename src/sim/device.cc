#include "device.hh"

#include <cmath>

#include "support/logging.hh"

namespace dysel {
namespace sim {

void
Device::submit(Launch launch)
{
    if (launch.numGroups == 0)
        support::panic("%s: submit with zero work-groups", name().c_str());
    const TimeNs overhead = launchOverheadNs();
    double time_scale = 1.0;
    switch (checkLaunchFault(launch)) {
      case FaultKind::LaunchFail:
        // The launch is dropped after its submission overhead; the
        // runtime observes the aborting fault after run().
        events.postAfter(overhead, EventKind::Nop);
        return;
      case FaultKind::Hang:
        events.postAfter(overhead + faults->config().hangStallNs,
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
        events.postAfter(overhead + faults->config().variantHangStallNs,
                         EventKind::Nop);
        return;
    }
    const std::uint32_t slot = queue.acquire(std::move(launch));
    ActiveLaunch &al = queue[slot];
    al.stats.submitTime = now();
    al.timeScale = time_scale;
    events.postAfter(overhead, EventKind::LaunchArrive, slot);
}

TimeNs
Device::addNoise(TimeNs d)
{
    if (noiseSigma <= 0.0)
        return d;
    // Box-Muller.
    const double u1 = std::max(rng.nextDouble(), 1e-12);
    const double u2 = rng.nextDouble();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double ref = static_cast<double>(noiseRefNs);
    const double scale =
        std::min(1.0, ref / std::max<double>(1.0, static_cast<double>(d)));
    const double factor = std::max(0.2, 1.0 + noiseSigma * scale * gauss);
    return static_cast<TimeNs>(static_cast<double>(d) * factor) + 1;
}

} // namespace sim
} // namespace dysel
