/**
 * @file
 * Autotuned stencil pipeline example.
 *
 * A PDE time-stepping loop runs a 7-point Jacobi stencil with three
 * registered implementations whose work assignment factors differ by
 * up to 128x (base / z-coarsened / scratchpad-tiled).  This exercises
 * the parts of the registration API that matter for such pools:
 * work-assignment factors for the safe-point normalization, explicit
 * orchestration choice, and the per-variant profile report.
 *
 * Build & run:   ./build/examples/autotuned_stencil [cpu|gpu]
 */
#include <cstdio>
#include <cstring>

#include "workloads/devices.hh"
#include "workloads/evaluate.hh"
#include "workloads/stencil.hh"

using namespace dysel;
using namespace dysel::workloads;

int
main(int argc, char **argv)
{
    const bool gpu = argc < 2 || std::strcmp(argv[1], "cpu") != 0;
    std::printf("autotuned stencil on the simulated %s\n\n",
                gpu ? "GPU (K20c-like)" : "CPU (i7-3820-like)");

    Workload w = makeStencilMixed();
    std::printf("kernel pool:\n");
    for (const auto &v : w.variants)
        std::printf("  %-18s waf=%-4llu groupSize=%-4u scratch=%lluB\n",
                    v.name.c_str(), (unsigned long long)v.waFactor,
                    v.groupSize,
                    (unsigned long long)v.traits.scratchBytes);

    auto device = (gpu ? gpuFactory() : cpuFactory())();
    runtime::Runtime rt(*device);
    w.registerWith(rt);
    w.resetOutput();

    runtime::LaunchOptions opt;
    opt.orch = runtime::Orchestration::Async; // overlap with profiling

    for (unsigned step = 0; step < w.iterations; ++step) {
        opt.profiling = step == 0; // re-selection only on step 0
        const auto report =
            rt.launchKernel(w.signature, w.units, w.args, opt);
        if (step == 0) {
            std::printf("\nmicro-profiling (%s, %s):\n",
                        compiler::profilingModeName(report.mode),
                        runtime::orchestrationName(report.orch));
            for (const auto &p : report.profiles) {
                if (p.units == 0)
                    continue; // blacklisted or never completed
                std::printf("  %-18s %9.1f us over %llu units\n",
                            p.name.c_str(),
                            static_cast<double>(p.metric) / 1e3,
                            (unsigned long long)p.units);
            }
            std::printf("selected '%s' with %llu eager chunks "
                        "dispatched during profiling\n",
                        report.selectedName.c_str(),
                        (unsigned long long)report.eagerChunks);
        }
    }

    std::printf("\n%u time steps in %.2f ms of virtual time; result "
                "%s\n",
                w.iterations, static_cast<double>(device->now()) / 1e6,
                w.check() ? "correct" : "WRONG");
    return 0;
}
