/**
 * @file
 * Calibration probe: runs every workload's variants standalone and
 * under DySel, printing relative times.  Development tool -- the
 * real figures come from the bench binaries.
 */
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads/cutcp.hh"
#include "workloads/devices.hh"
#include "workloads/evaluate.hh"
#include "workloads/histogram.hh"
#include "workloads/kmeans.hh"
#include "workloads/particlefilter.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/spmv_jds.hh"
#include "workloads/stencil.hh"

using namespace dysel;
using namespace dysel::workloads;

namespace {

void
probe(const char *tag, Workload w, const DeviceFactory &factory)
{
    std::printf("== %s (%s, units=%llu, iters=%u)\n", tag, w.name.c_str(),
                (unsigned long long)w.units, w.iterations);
    OracleResult oracle = runOracle(factory, w);
    for (std::size_t i = 0; i < oracle.runs.size(); ++i) {
        const auto &r = oracle.runs[i];
        std::printf("   %-28s %10.3f ms  rel=%6.3f %s%s\n", r.name.c_str(),
                    r.elapsed / 1e6,
                    relative(r.elapsed, oracle.best()),
                    r.ok ? "" : "WRONG ",
                    i == oracle.bestIndex
                        ? "<-- best"
                        : (i == oracle.worstIndex ? "<-- worst" : ""));
    }
    for (auto orch : {runtime::Orchestration::Sync,
                      runtime::Orchestration::Async}) {
        runtime::LaunchOptions opt;
        opt.orch = orch;
        DyselRun dr = runDysel(factory, w, opt);
        std::printf("   dysel-%-5s -> %-18s %10.3f ms  rel=%6.3f %s "
                    "(chunks=%llu profU=%llu mode=%s)\n",
                    runtime::orchestrationName(orch),
                    dr.firstIteration.selectedName.c_str(),
                    dr.elapsed / 1e6, relative(dr.elapsed, oracle.best()),
                    dr.ok ? "" : "WRONG",
                    (unsigned long long)dr.firstIteration.eagerChunks,
                    (unsigned long long)dr.firstIteration.profiledUnits,
                    compiler::profilingModeName(dr.firstIteration.mode));
        for (const auto &p : dr.firstIteration.profiles) {
            if (p.units == 0)
                continue; // blacklisted or never completed
            std::printf("        profile %-24s metric=%8.1f us span=%8.1f "
                        "us busy=%8.1f us\n",
                        p.name.c_str(), p.metric / 1e3, p.span / 1e3,
                        p.busy / 1e3);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto want = [&](const char *name) {
        if (argc < 2)
            return true;
        for (int i = 1; i < argc; ++i)
            if (std::strstr(name, argv[i]))
                return true;
        return false;
    };

    if (want("sgemm-lc"))
        probe("sgemm-lc", makeSgemmLcCpu(), cpuFactory());
    if (want("sgemm-vec"))
        probe("sgemm-vec", makeSgemmVectorCpu(), cpuFactory());
    if (want("sgemm-mixed-cpu"))
        probe("sgemm-mixed-cpu", makeSgemmMixed(), cpuFactory());
    if (want("sgemm-mixed-gpu"))
        probe("sgemm-mixed-gpu", makeSgemmMixed(), gpuFactory());
    if (want("spmv-csr-lc-random"))
        probe("spmv-csr-lc-random", makeSpmvCsrCpuLc(SpmvInput::Random),
              cpuFactory());
    if (want("spmv-csr-lc-diagonal"))
        probe("spmv-csr-lc-diagonal",
              makeSpmvCsrCpuLc(SpmvInput::Diagonal), cpuFactory());
    if (want("spmv-csr-inputdep-cpu-random"))
        probe("spmv-csr-inputdep-cpu-random",
              makeSpmvCsrCpuInputDep(SpmvInput::Random), cpuFactory());
    if (want("spmv-csr-inputdep-cpu-diagonal"))
        probe("spmv-csr-inputdep-cpu-diagonal",
              makeSpmvCsrCpuInputDep(SpmvInput::Diagonal), cpuFactory());
    if (want("spmv-csr-inputdep-gpu-random"))
        probe("spmv-csr-inputdep-gpu-random",
              makeSpmvCsrGpuInputDep(SpmvInput::Random), gpuFactory());
    if (want("spmv-csr-inputdep-gpu-diagonal"))
        probe("spmv-csr-inputdep-gpu-diagonal",
              makeSpmvCsrGpuInputDep(SpmvInput::Diagonal), gpuFactory());
    if (want("spmv-csr-placement-gpu"))
        probe("spmv-csr-placement-gpu", makeSpmvCsrGpuPlacement(),
              gpuFactory());
    if (want("spmv-jds-vec"))
        probe("spmv-jds-vec", makeSpmvJdsVectorCpu(), cpuFactory());
    if (want("spmv-jds-lc"))
        probe("spmv-jds-lc", makeSpmvJdsCpuLc(), cpuFactory());
    if (want("spmv-jds-mixed-cpu"))
        probe("spmv-jds-mixed-cpu", makeSpmvJdsCpuMixed(), cpuFactory());
    if (want("spmv-jds-mixed-gpu"))
        probe("spmv-jds-mixed-gpu", makeSpmvJdsGpuMixed(), gpuFactory());
    if (want("stencil-lc"))
        probe("stencil-lc", makeStencilLcCpu(), cpuFactory());
    if (want("stencil-mixed-cpu"))
        probe("stencil-mixed-cpu", makeStencilMixed(), cpuFactory());
    if (want("stencil-mixed-gpu"))
        probe("stencil-mixed-gpu", makeStencilMixed(), gpuFactory());
    if (want("kmeans-lc"))
        probe("kmeans-lc", makeKmeansLcCpu(), cpuFactory());
    if (want("cutcp-lc6"))
        probe("cutcp-lc6", makeCutcpLcCpu(6), cpuFactory());
    if (want("cutcp-mixed-cpu"))
        probe("cutcp-mixed-cpu", makeCutcpMixed(), cpuFactory());
    if (want("cutcp-mixed-gpu"))
        probe("cutcp-mixed-gpu", makeCutcpMixed(), gpuFactory());
    if (want("particlefilter"))
        probe("particlefilter", makeParticleFilterGpu(), gpuFactory());
    if (want("histogram-cpu"))
        probe("histogram-cpu", makeHistogram(), cpuFactory());
    if (want("histogram-gpu"))
        probe("histogram-gpu", makeHistogram(), gpuFactory());
    return 0;
}
