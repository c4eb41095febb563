#include "mixed.hh"

#include <limits>
#include <memory>

#include "compiler/analysis.hh"
#include "support/logging.hh"
#include "support/math_util.hh"

namespace dysel {
namespace runtime {

bool
MixedReport::heterogeneous() const
{
    for (std::size_t s = 1; s < segmentSelection.size(); ++s)
        if (segmentSelection[s] != segmentSelection[0])
            return true;
    return false;
}

support::Status
tryLaunchKernelMixed(Runtime &rt, const std::string &signature,
                     std::uint64_t total_units,
                     const kdp::KernelArgs &args, unsigned segments,
                     MixedReport &out)
{
    using support::ceilDiv;

    const auto *variantsp = rt.findVariants(signature);
    if (!variantsp)
        return support::Status::notFound(
            "tryLaunchKernelMixed: unknown kernel signature '" + signature
            + "'");
    const auto &variants = *variantsp;
    const auto num_variants = variants.size();
    if (num_variants == 0)
        return support::Status::failedPrecondition(
            "tryLaunchKernelMixed(" + signature
            + "): no variants registered");
    if (segments == 0)
        segments = 1;

    sim::Device &dev = rt.device();
    const bool gpu = dev.kind() == sim::DeviceKind::Gpu;
    unsigned fill = dev.computeUnits() * (gpu ? 4 : 1);

    std::vector<std::uint64_t> wafs;
    wafs.reserve(num_variants);
    for (const auto &v : variants)
        wafs.push_back(v.waFactor);
    const std::uint64_t lcm = support::lcmAll(wafs);

    // Shrink the segment count until each segment can afford one
    // safe-point slice per variant under the 50% cap.
    compiler::SafePointPlan plan;
    std::uint64_t seg_units = 0;
    while (true) {
        seg_units = total_units / segments;
        seg_units -= seg_units % lcm;
        if (seg_units > 0) {
            plan = compiler::safePointAnalysis(wafs, fill, seg_units);
            if (plan.unitsPerVariant > 0)
                break;
        }
        if (segments == 1)
            return support::Status::failedPrecondition(
                "tryLaunchKernelMixed(" + signature
                + "): workload too small to profile even one segment");
        segments /= 2;
    }
    const std::uint64_t slice = plan.unitsPerVariant;

    MixedReport &report = out;
    report = MixedReport();
    report.signature = signature;
    report.totalUnits = total_units;
    report.unitsPerSegment = seg_units;
    report.profiledUnits = slice * num_variants * segments;
    report.segmentSelection.assign(segments, 0);
    report.segmentMetrics.assign(
        segments, std::vector<sim::TimeNs>(
                      num_variants,
                      std::numeric_limits<sim::TimeNs>::max()));
    report.startTime = dev.now();

    struct SegState
    {
        unsigned outstanding = 0;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
    };
    auto states = std::make_shared<std::vector<SegState>>(segments);

    for (unsigned s = 0; s < segments; ++s) {
        SegState &seg = (*states)[s];
        seg.start = std::uint64_t{s} * seg_units;
        seg.end = s + 1 == segments ? total_units
                                    : seg.start + seg_units;
        seg.outstanding = static_cast<unsigned>(num_variants);

        for (std::size_t i = 0; i < num_variants; ++i) {
            const kdp::KernelVariant &variant = variants[i];
            sim::Launch launch;
            launch.variant = &variant;
            launch.args = args;
            launch.firstGroup =
                (seg.start + i * slice) / variant.waFactor;
            launch.numGroups = plan.groups[i];
            launch.priority = 1;
            launch.stream =
                1 + static_cast<int>(s * num_variants + i);
            launch.exclusive = gpu;
            launch.onComplete = [&dev, &args, states, &report, &variants,
                                 s, i, slice, num_variants,
                                 gpu](const sim::LaunchStats &stats) {
                report.segmentMetrics[s][i] =
                    gpu ? stats.span() : stats.busyTime;
                SegState &seg = (*states)[s];
                if (--seg.outstanding > 0)
                    return;
                // Segment fully profiled: pick its winner and run the
                // rest of the segment with it.
                int best = 0;
                for (std::size_t k = 1; k < num_variants; ++k)
                    if (report.segmentMetrics[s][k]
                        < report.segmentMetrics[s][best])
                        best = static_cast<int>(k);
                report.segmentSelection[s] = best;
                const kdp::KernelVariant &winner = variants[best];
                const std::uint64_t first =
                    seg.start + num_variants * slice;
                if (first >= seg.end)
                    return;
                if (first % winner.waFactor != 0)
                    support::panic("mixed segment start %llu not "
                                   "aligned to wa factor %llu",
                                   (unsigned long long)first,
                                   (unsigned long long)winner.waFactor);
                sim::Launch rest;
                rest.variant = &winner;
                rest.args = args;
                rest.firstGroup = first / winner.waFactor;
                rest.numGroups =
                    support::ceilDiv(seg.end - first, winner.waFactor);
                rest.priority = 0;
                // Per-segment bulk streams so segments overlap on the
                // device once their profiling is done.
                rest.stream = 100000 + static_cast<int>(s);
                dev.submit(std::move(rest));
            };
            dev.submit(std::move(launch));
        }
    }

    dev.run();
    report.endTime = dev.now();
    return support::Status();
}

support::Status
tryLaunchKernelMixedCached(Runtime &rt, const std::string &signature,
                           std::uint64_t total_units,
                           const kdp::KernelArgs &args,
                           const MixedReport &selection)
{
    const auto *variantsp = rt.findVariants(signature);
    if (!variantsp)
        return support::Status::notFound(
            "tryLaunchKernelMixedCached: unknown kernel signature '"
            + signature + "'");
    const auto &variants = *variantsp;
    if (selection.signature != signature
        || selection.totalUnits != total_units)
        return support::Status::invalidArgument(
            "tryLaunchKernelMixedCached(" + signature
            + "): selection does not match this workload");
    for (const int v : selection.segmentSelection)
        if (v < 0 || v >= static_cast<int>(variants.size()))
            return support::Status::invalidArgument(
                "tryLaunchKernelMixedCached(" + signature
                + "): selected variant " + std::to_string(v)
                + " outside the registered pool");
    sim::Device &dev = rt.device();

    const auto segments = selection.segmentSelection.size();
    for (std::size_t s = 0; s < segments; ++s) {
        const std::uint64_t start = s * selection.unitsPerSegment;
        const std::uint64_t end = s + 1 == segments
            ? total_units
            : start + selection.unitsPerSegment;
        const kdp::KernelVariant &winner =
            variants[static_cast<std::size_t>(
                selection.segmentSelection[s])];
        if (start % winner.waFactor != 0)
            support::panic("cached mixed segment misaligned");
        sim::Launch launch;
        launch.variant = &winner;
        launch.args = args;
        launch.firstGroup = start / winner.waFactor;
        launch.numGroups =
            support::ceilDiv(end - start, winner.waFactor);
        launch.priority = 0;
        launch.stream = 100000 + static_cast<int>(s);
        dev.submit(std::move(launch));
    }
    dev.run();
    return support::Status();
}

} // namespace runtime
} // namespace dysel
