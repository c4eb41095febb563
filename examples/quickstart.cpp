/**
 * @file
 * Quickstart: the smallest complete DySel program.
 *
 * We register two implementations of the same "scale and offset"
 * kernel -- a straightforward one and a deliberately wasteful one --
 * and let the runtime micro-profile both on a slice of the actual
 * workload before committing the rest to the winner.
 *
 * Build & run:   ./build/examples/quickstart
 */
#include <cstdio>

#include "dysel/runtime.hh"
#include "sim/cpu/cpu_device.hh"

using namespace dysel;

namespace {

/** y[i] = a * x[i] + b, one work-group per 64 elements. */
kdp::KernelVariant
makeVariant(const char *name, unsigned wasted_flops)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = 64;
    v.waFactor = 1;      // one workload unit per work-group
    v.sandboxIndex = {1}; // y is the output argument
    v.fn = [wasted_flops](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        const auto &x = args.buf<float>(0);
        auto &y = args.buf<float>(1);
        const double a = args.scalarDouble(2);
        const double b = args.scalarDouble(3);
        kdp::forEachItem(g, [&](kdp::ItemCtx &item) {
            const float xv = item.load(x, item.globalId());
            item.store(y, item.globalId(),
                       static_cast<float>(a) * xv
                           + static_cast<float>(b));
            item.flops(2 + wasted_flops);
        });
    };
    return v;
}

} // namespace

int
main()
{
    // 1. A device.  The library ships cycle-level CPU and GPU
    //    simulators; swap in sim::GpuDevice to target the GPU model.
    sim::CpuDevice device;
    runtime::Runtime rt(device);

    // 2. Register the kernel pool (the paper's DySelAddKernel).
    rt.addKernel("saxpy", makeVariant("wasteful", 600));
    rt.addKernel("saxpy", makeVariant("lean", 0));

    // 3. Data.  Buffers are real storage plus a virtual device
    //    address for the timing models.
    constexpr std::uint64_t n = 64 * 4096;
    kdp::Buffer<float> x(n, kdp::MemSpace::Global, "x");
    kdp::Buffer<float> y(n, kdp::MemSpace::Global, "y");
    for (std::uint64_t i = 0; i < n; ++i)
        x.host()[i] = static_cast<float>(i % 100);

    kdp::KernelArgs args;
    args.add(x).add(y).add(2.0).add(1.0);

    // 4. Launch (the paper's DySelLaunchKernel).  The runtime
    //    micro-profiles every variant on a slice of this very
    //    workload and finishes with the winner.
    const auto report = rt.launchKernel("saxpy", n / 64, args);

    std::printf("selected variant: %s\n", report.selectedName.c_str());
    std::printf("profiled %llu of %llu workload units (%.1f%%)\n",
                (unsigned long long)report.profiledUnits,
                (unsigned long long)report.totalUnits,
                100.0 * static_cast<double>(report.profiledUnits)
                    / static_cast<double>(report.totalUnits));
    std::printf("virtual execution time: %.1f us\n",
                static_cast<double>(report.elapsed()) / 1e3);
    for (const auto &p : report.profiles) {
        if (p.units == 0)
            continue; // blacklisted or never completed
        std::printf("  %-10s measured %8.1f us over %llu units\n",
                    p.name.c_str(), static_cast<double>(p.metric) / 1e3,
                    (unsigned long long)p.units);
    }

    // 5. The output is real: verify it.
    for (std::uint64_t i = 0; i < n; ++i) {
        const float expect = 2.0f * x.host()[i] + 1.0f;
        if (y.host()[i] != expect) {
            std::printf("MISMATCH at %llu\n", (unsigned long long)i);
            return 1;
        }
    }
    std::printf("output verified: y = 2x + 1 across all %llu elements\n",
                (unsigned long long)n);
    return 0;
}
