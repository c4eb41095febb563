/**
 * @file
 * Extension bench: mixed-version execution (the paper's §4.1 future
 * work).  On a heterogeneous matrix -- half random rows, half
 * diagonal -- no pure spmv kernel is good everywhere, so per-segment
 * selection beats even the oracle pure variant.
 */
#include <iostream>

#include "dysel/mixed.hh"
#include "support/table.hh"
#include "workloads/spmv_csr.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

int
main()
{
    std::cout << "=== Extension: mixed-version execution on a "
                 "heterogeneous matrix (GPU) ===\n"
              << "top half of the rows: random (~40 nnz); bottom half: "
                 "diagonal (1 nnz)\n\n";

    Workload w = workloads::makeSpmvCsrGpuHetero();
    const auto oracle = workloads::runOracle(workloads::gpuFactory(), w);

    // Standard DySel: one selection for the whole workload.
    Workload w_std = workloads::makeSpmvCsrGpuHetero();
    const auto standard = workloads::runDysel(
        workloads::gpuFactory(), w_std, runtime::LaunchOptions{});

    // Mixed-version: per-segment selection, re-profiled per launch.
    Workload w_mix = workloads::makeSpmvCsrGpuHetero();
    auto device = workloads::gpuFactory()();
    runtime::Runtime rt(*device);
    w_mix.registerWith(rt);
    w_mix.resetOutput();
    const sim::TimeNs mix_start = device->now();
    runtime::MixedReport mixed;
    runtime::tryLaunchKernelMixed(rt, w_mix.signature, w_mix.units,
                                  w_mix.args, 8, mixed)
        .throwIfError();
    for (unsigned it = 1; it < w_mix.iterations; ++it)
        runtime::tryLaunchKernelMixedCached(rt, w_mix.signature,
                                            w_mix.units, w_mix.args, mixed)
            .throwIfError();
    const sim::TimeNs mixed_elapsed = device->now() - mix_start;

    support::Table table({"configuration", "time (ms)",
                          "relative to pure oracle"});
    for (const auto &run : oracle.runs)
        table.row()
            .cell("pure " + run.name)
            .cell(static_cast<double>(run.elapsed) / 1e6, 3)
            .cell(workloads::relative(run.elapsed, oracle.best()), 3);
    table.row()
        .cell("DySel (single selection)")
        .cell(static_cast<double>(standard.elapsed) / 1e6, 3)
        .cell(workloads::relative(standard.elapsed, oracle.best()), 3);
    table.row()
        .cell("DySel mixed (8 segments)")
        .cell(static_cast<double>(mixed_elapsed) / 1e6, 3)
        .cell(workloads::relative(mixed_elapsed, oracle.best()), 3);
    table.print(std::cout);

    std::cout << "\nper-segment selection:";
    for (int sel : mixed.segmentSelection)
        std::cout << " " << w_mix.variants[sel].name;
    std::cout << "\nresult "
              << (w_mix.check() ? "correct" : "WRONG") << "; "
              << (mixed.heterogeneous() ? "heterogeneous"
                                        : "uniform")
              << " selection\n"
              << "\nPaper §4.1: \"a mixed version that applies "
                 "different pure versions on different partitions of "
                 "computation could potentially outperform the "
                 "oracle\" -- demonstrated here.\n";
    return 0;
}
