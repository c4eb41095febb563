/**
 * @file
 * Shared plumbing of the host-time benchmark: command-line options,
 * wall clocks, order statistics, the one-line JSON result, and the
 * in-memory span log the traced runs export as Chrome trace-event JSON.
 *
 * Every timing here is host time (std::chrono::steady_clock); the
 * simulator's virtual nanoseconds appear only inside digests and
 * correctness gates.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kdp/args.hh"
#include "kdp/kernel.hh"
#include "kdp/trace.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"

namespace hostbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for files the run writes and removes (store files). */
    std::string workDir = ".";
    /** Chrome trace output of a traced run ("" = no file). */
    std::string traceOut;
    /** Self-test scale: a few jobs, no time budget. */
    bool tiny = false;
    /** Corrupt one output element so the correctness gate must fire. */
    bool corrupt = false;
    /** sim-suite: print the pinned digest table instead of measuring. */
    bool printPins = false;
    /** sim-suite: pinned digest table to check against. */
    std::string pinsPath;
};

/** Host nanoseconds on the monotonic clock. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 1] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/**
 * A time taken over repeats within one run: their first quartile.  On
 * a shared host whose raw speed swings by up to 4x within seconds, the
 * faster repeats measure the program and the slower ones mostly the
 * host; the quartile is far steadier from run to run than the median.
 */
inline double
fastQuartile(std::vector<double> times)
{
    return percentile(std::move(times), 0.25);
}

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** FNV-1a 64-bit accumulator. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run prints as its last line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Record a failed correctness gate (printed to stderr). */
    void fail(const std::string &why);
};

/** Print @p r as one JSON line on stdout. */
void printResult(const Result &r);

/**
 * Spans recorded around calls into the program's layers.  Plain
 * records in a preallocated vector while measuring; converted to a
 * support::tracing::Tracer and written as Chrome trace-event JSON at
 * the end.  Timestamps are host ns relative to the earliest span.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity);

    /** Record [start, end) on @p track; dropped once full. */
    void
    add(const char *name, const char *track, std::uint64_t start,
        std::uint64_t end, std::uint64_t cid)
    {
        if (spans.size() < spans.capacity())
            spans.push_back({name, track, start, end, cid});
    }

    /** Write the Chrome trace; false on an I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        const char *track;
        std::uint64_t start, end, cid;
    };
    std::vector<Span> spans;
};

/**
 * Cost-model replay shared by every workload.  Work-groups of one
 * variant run through GroupCtx + fn into a WorkGroupTrace, and
 * sim::cpuWorkGroupCycles or sim::gpuWorkGroupCost is timed on each
 * trace.  Group g runs on core (or SM) g mod cores of a default device
 * configuration, each with its private caches, beside the shared L3
 * (or L2): consecutive groups land on different cores, as the device's
 * scheduler spreads them.  warm() only fills the caches, as a running
 * device's are warm; measure() times the cost model and counts its
 * cache accesses.  This estimates the cost model's time per group; the
 * device's own group-to-core order differs.
 */
class CostReplay
{
  public:
    explicit CostReplay(bool gpu);

    /** Replay groups [first, first + count) untimed. */
    void
    warm(const dysel::kdp::KernelVariant &v,
         const dysel::kdp::KernelArgs &args, std::uint64_t first,
         std::uint64_t count)
    {
        replay(v, args, first, count, false);
    }

    /** Replay groups [first, first + count), timing the cost model. */
    void
    measure(const dysel::kdp::KernelVariant &v,
            const dysel::kdp::KernelArgs &args, std::uint64_t first,
            std::uint64_t count)
    {
        replay(v, args, first, count, true);
    }

    double
    nsPerGroup() const
    {
        return groups ? ns / static_cast<double>(groups) : 0.0;
    }
    double
    accessesPerGroup() const
    {
        return groups ? static_cast<double>(accesses)
                            / static_cast<double>(groups)
                      : 0.0;
    }
    /** Cache accesses of the measured groups (exact for given inputs). */
    std::uint64_t accesses = 0;

  private:
    void replay(const dysel::kdp::KernelVariant &v,
                const dysel::kdp::KernelArgs &args, std::uint64_t first,
                std::uint64_t count, bool timed);
    std::uint64_t cacheAccesses() const;

    bool gpu;
    dysel::sim::CpuConfig ccfg;
    dysel::sim::GpuConfig gcfg;
    std::vector<dysel::sim::CpuCoreState> cores;
    dysel::sim::Cache l3;
    std::vector<dysel::sim::GpuSmState> sms;
    dysel::sim::Cache gpuL2;
    dysel::kdp::WorkGroupTrace trace;
    double ns = 0;
    std::uint64_t groups = 0;
};

/** Per-layer values of a traced run, by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * Add every per-layer metric, in its fixed order and unit, to @p r.
 * Every workload reports the same set; a layer the workload does not
 * exercise reports 0.  The self.* rows are each layer's self time and
 * self.other_s is the residual, so they sum to self.traced_wall_s.
 */
void addLayerMetrics(Result &r, LayerValues values);

/** Workload entry points (each returns its result; never throws). */
Result runSimSuite(const Options &opt);
Result runServe(const Options &opt, bool cold);

} // namespace hostbench
