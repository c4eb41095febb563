#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "kdp/context.hh"
#include "support/tracing/tracer.hh"

namespace hostbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Result::fail(const std::string &why)
{
    correct = false;
    std::cerr << "hostbench: correctness gate failed: " << why << '\n';
}

void
printResult(const Result &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        if (i)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \""
               + m.unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

CostReplay::CostReplay(bool gpu_)
    : gpu(gpu_), l3(ccfg.l3), gpuL2(gcfg.l2)
{
    if (gpu)
        sms.assign(gcfg.sms, dysel::sim::GpuSmState(gcfg.tex));
    else
        cores.assign(ccfg.cores,
                     dysel::sim::CpuCoreState(ccfg.l1, ccfg.l2));
}

std::uint64_t
CostReplay::cacheAccesses() const
{
    std::uint64_t n = gpu ? gpuL2.accesses() : l3.accesses();
    for (const auto &sm : sms)
        n += sm.texCache.accesses();
    for (const auto &core : cores)
        n += core.l1.accesses() + core.l2.accesses();
    return n;
}

void
CostReplay::replay(const dysel::kdp::KernelVariant &v,
                   const dysel::kdp::KernelArgs &args, std::uint64_t first,
                   std::uint64_t count, bool timed)
{
    for (std::uint64_t g = first; g < first + count; ++g) {
        trace.reset(v.groupSize);
        dysel::kdp::GroupCtx ctx(g, v.groupSize, v.waFactor, &trace);
        v.fn(ctx, args);
        const std::uint64_t a0 = cacheAccesses();
        const std::uint64_t t0 = nowNs();
        double cycles;
        if (gpu) {
            const auto c = dysel::sim::gpuWorkGroupCost(
                trace, v.traits, v.groupSize, sms[g % sms.size()], gpuL2,
                gcfg.cost);
            cycles = c.throughputCycles + c.latencyCycles;
        } else {
            cycles = dysel::sim::cpuWorkGroupCycles(
                trace, v.traits, cores[g % cores.size()], l3, ccfg.cost);
        }
        const std::uint64_t t1 = nowNs();
        if (cycles < 0)
            throw std::runtime_error("negative cost-model cycles");
        if (timed) {
            ns += static_cast<double>(t1 - t0);
            accesses += cacheAccesses() - a0;
            ++groups;
        }
    }
}

SpanLog::SpanLog(std::size_t capacity)
{
    spans.reserve(capacity);
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    dysel::support::tracing::Tracer tracer;
    tracer.setEnabled(true);
    std::uint64_t origin = UINT64_MAX;
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    for (const Span &s : spans) {
        const std::uint64_t start = s.start - origin;
        const std::uint64_t end = std::max(s.end, s.start) - origin;
        tracer.complete(tracer.track(s.track), s.name, start, end, s.cid);
    }
    std::ofstream f(path);
    f << tracer.exportChromeTrace().dump() << '\n';
    return static_cast<bool>(f);
}

void
addLayerMetrics(Result &r, LayerValues values)
{
    static const char *const selfLayers[] = {
        "self.serve_submit_s", "self.serve_queue_s", "self.kdp_s",
        "self.sim_cost_s", "self.sim_dispatch_s", "self.dysel_s",
        "self.workloads_s", "self.serve_complete_s", "self.serve_wake_s",
    };
    double busy = 0.0;
    for (const char *name : selfLayers)
        busy += values[name];
    values["self.other_s"] = values["self.traced_wall_s"] - busy;

    static const std::pair<const char *, const char *> metrics[] = {
        {"kdp.body_ns_per_group", "ns"},
        {"sim.cost_ns_per_group", "ns"},
        {"sim.cache_accesses_per_group", "count"},
        {"sim.dispatch_ns_per_group", "ns"},
        {"sim.events_per_group", "count"},
        {"dysel.orchestration_us_per_launch", "us"},
        {"dysel.profiled_unit_ratio", "ratio"},
        {"serve.submit_ns_per_job", "ns"},
        {"serve.queue_us_p50", "us"},
        {"serve.exec_us_p50", "us"},
        {"serve.complete_us_p50", "us"},
        {"serve.wake_us_p50", "us"},
        {"serve.batch_occupancy", "jobs"},
        {"serve.jobs_shed", "count"},
        {"store.hit_ratio", "ratio"},
        {"store.lookup_ns", "ns"},
        {"store.load_ms", "ms"},
        {"store.save_ms", "ms"},
        {"coalesce.hit_ratio", "ratio"},
        {"predict.hit_ratio", "ratio"},
        {"predict.demotions", "count"},
        {"trace.overhead_pct", "%"},
        {"self.serve_submit_s", "s"},
        {"self.serve_queue_s", "s"},
        {"self.kdp_s", "s"},
        {"self.sim_cost_s", "s"},
        {"self.sim_dispatch_s", "s"},
        {"self.dysel_s", "s"},
        {"self.workloads_s", "s"},
        {"self.serve_complete_s", "s"},
        {"self.serve_wake_s", "s"},
        {"self.other_s", "s"},
        {"self.traced_wall_s", "s"},
        {"det.groups_per_round", "count"},
        {"det.events_per_round", "count"},
        {"det.cache_accesses_replayed", "count"},
        {"det.digest48", "count"},
    };
    for (const auto &[name, unit] : metrics)
        r.add(name, values[name], unit);
}

} // namespace hostbench
