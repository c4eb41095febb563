/**
 * @file
 * Iterative solver example: the paper's "profiling activation flag"
 * use case (§3.1).
 *
 * A conjugate-gradient-style solver calls the same spmv kernel every
 * iteration with an unchanged matrix.  DySel profiles the kernel pool
 * on the first iteration only; later iterations reuse the cached
 * selection, so the profiling cost is amortized across the whole
 * solve.
 *
 * Build & run:   ./build/examples/iterative_solver
 */
#include <cstdio>

#include "dysel/runtime.hh"
#include "sim/gpu/gpu_device.hh"
#include "workloads/evaluate.hh"
#include "workloads/spmv_csr.hh"

using namespace dysel;
using namespace dysel::workloads;

int
main()
{
    // The spmv-csr workload ships with scalar and vector kernels; on
    // this (random) matrix the vector kernel should win on the GPU.
    Workload w = makeSpmvCsrGpuInputDep(SpmvInput::Random);

    sim::GpuDevice device;
    runtime::Runtime rt(device);
    w.registerWith(rt);
    w.resetOutput();

    constexpr unsigned iterations = 12;
    sim::TimeNs profile_time = 0;

    for (unsigned it = 0; it < iterations; ++it) {
        runtime::LaunchOptions opt;
        // The profiling activation flag: on for the first iteration,
        // off afterwards (the selection cache serves the rest).
        opt.profiling = it == 0;
        const auto report =
            rt.launchKernel(w.signature, w.units, w.args, opt);
        if (it == 0) {
            profile_time = report.elapsed();
            std::size_t profiled = 0;
            for (const auto &p : report.profiles)
                profiled += p.units > 0;
            std::printf("iteration 0: profiled %zu variants, selected "
                        "'%s'\n",
                        profiled, report.selectedName.c_str());
        } else if (it == 1) {
            std::printf("iteration %u: cache hit -> '%s' (%s)\n", it,
                        report.selectedName.c_str(),
                        report.fromCache ? "from cache" : "re-profiled");
        }
    }

    const sim::TimeNs total = device.now();
    std::printf("\n%u iterations in %.2f ms of virtual time\n",
                iterations, static_cast<double>(total) / 1e6);
    std::printf("first (profiling) iteration: %.2f ms; later "
                "iterations: %.3f ms each\n",
                static_cast<double>(profile_time) / 1e6,
                static_cast<double>(total - profile_time)
                    / (iterations - 1) / 1e6);
    std::printf("result %s\n", w.check() ? "correct" : "WRONG");
    return 0;
}
