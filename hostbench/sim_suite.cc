/**
 * @file
 * sim-suite: paper-figure rows through the public harness.
 *
 * A fixed set of rows from the workloads::make* factories at their
 * figure sizes -- GPU regular (sgemm, Fig. 10), CPU irregular
 * iterative (spmv-csr random and diagonal, Fig. 8).  Every row runs
 * runOracle plus DySel Sync and Async with each initial variant; the
 * seed fixes the order of the rows and of their Async runs, never the
 * amount of work.  The workload is all
 * simulator and runtime: the serve and store layers do no work here.
 *
 * The untraced run repeats the pass for the time budget and reports
 * each job slot's fast quartile over the passes.  Every harness job
 * starts from freshly generated inputs, so set-up (input generation)
 * is sampled as often as the jobs.  Latency comes from one fixed job,
 * run after each row through Runtime::launch with each launch timed.
 * The traced run drives the same launches through Runtime::launch
 * directly (the harness's own loop, with a timer around each call and
 * around every kernel body) and proves it is the same work by
 * reproducing the untraced virtual digest.  Cost model time comes
 * from the shared CostReplay.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <tuple>
#include <sstream>

#include "common.hh"
#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"
#include "support/rng.hh"
#include "workloads/evaluate.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"

namespace hostbench {

namespace {

using dysel::runtime::LaunchOptions;
using dysel::runtime::LaunchReport;
using dysel::runtime::Orchestration;
using dysel::workloads::Workload;
namespace sim = dysel::sim;

/** Host time and counts of one pass (untraced). */
struct PassCounts
{
    std::uint64_t groups = 0;
    std::uint64_t events = 0;
    std::uint64_t jobs = 0;
};

/**
 * Devices that report their executed work-groups and fired events
 * into a tally when the harness destroys them.
 */
template <typename Base, typename Config>
class TalliedDevice : public Base
{
  public:
    TalliedDevice(const Config &cfg, PassCounts *tally)
        : Base(cfg), tally_(tally)
    {}
    ~TalliedDevice() override
    {
        tally_->groups += this->groupsExecuted();
        tally_->events += this->engine().eventsFired();
    }

  private:
    PassCounts *tally_;
};

struct RowDef
{
    const char *name;
    std::function<Workload()> make;
    bool gpu;
};

const std::vector<RowDef> &
rowDefs()
{
    using namespace dysel::workloads;
    static const std::vector<RowDef> defs = {
        {"sgemm-mixed-gpu", [] { return makeSgemmMixed(); }, true},
        {"spmv-csr-random-cpu",
         [] { return makeSpmvCsrCpuLc(SpmvInput::Random); }, false},
        {"spmv-csr-diagonal-cpu",
         [] { return makeSpmvCsrCpuLc(SpmvInput::Diagonal); }, false},
    };
    return defs;
}

struct Row
{
    const RowDef *def = nullptr;
    Workload w;
    /** Async runs: one per initial variant, in a seeded order. */
    std::vector<int> asyncOrder;
    /** Original kernel bodies (the traced run wraps w.variants). */
    std::vector<dysel::kdp::KernelFn> bodies;
    /** Host seconds of every generation of this row's inputs. */
    std::vector<double> setupS;
};

dysel::workloads::DeviceFactory
factoryFor(const Row &row, PassCounts *tally)
{
    if (row.def->gpu)
        return [tally] {
            return std::make_unique<
                TalliedDevice<sim::GpuDevice, sim::GpuConfig>>(
                sim::GpuConfig(), tally);
        };
    return [tally] {
        return std::make_unique<
            TalliedDevice<sim::CpuDevice, sim::CpuConfig>>(
            sim::CpuConfig(), tally);
    };
}

/** Per-row digests of the virtual results (pinned in pins.txt). */
struct RowDigest
{
    std::uint64_t oracle = 0, sync = 0;
    std::vector<std::uint64_t> async; ///< by initial variant
};

std::uint64_t
oracleDigest(const dysel::workloads::OracleResult &o)
{
    Fnv f;
    for (const auto &run : o.runs) {
        f.add(run.name);
        f.add(run.elapsed);
    }
    return f.h;
}

std::uint64_t
dyselDigest(const dysel::workloads::DyselRun &run, int initial)
{
    Fnv f;
    f.add(static_cast<std::uint64_t>(initial + 1));
    f.add(run.elapsed);
    f.add(run.firstIteration.selectedName);
    f.add(run.firstIteration.profiledUnits);
    return f.h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Move the process-wide virtual address cursor of kdp buffers to the
 * next multiple of 1 MiB.  Virtual results depend on buffer addresses
 * (cache set indices use address bits up to 2^19), and the cursor only
 * grows, so without this a job's virtual time would depend on every
 * allocation made before it -- earlier rows, earlier passes, sandbox
 * clones.  Aligning before each row's inputs and each harness job
 * gives every job the same address layout in every pass and process.
 */
void
alignAddressCursor()
{
    constexpr std::uint64_t period = 1ull << 20;
    constexpr std::uint64_t page = 4096;
    // A buffer of b bytes advances the cursor by roundup(b, page) + page.
    std::uint64_t next;
    {
        dysel::kdp::Buffer<std::uint8_t> probe(1);
        next = probe.addrOf(0) + 2 * page;
    }
    const std::uint64_t gap = (period - next % period) % period;
    if (gap >= page)
        dysel::kdp::Buffer<std::uint8_t> pad(gap - page);
}

/**
 * --corrupt: after the first work-group of every variant runs, flip a
 * high bit of element 0 of its first output buffer -- one wrong output
 * element, which the workload's check() must catch.
 */
void
installCorruption(Row &row)
{
    for (auto &v : row.w.variants) {
        if (v.sandboxIndex.empty())
            continue;
        const std::size_t out = v.sandboxIndex[0];
        v.fn = [body = v.fn, out](dysel::kdp::GroupCtx &g,
                                  const dysel::kdp::KernelArgs &a) {
            body(g, a);
            if (g.group() == 0) {
                auto &buf = a.bufBase(out);
                auto *bytes = static_cast<unsigned char *>(buf.rawData());
                bytes[buf.elemSize() - 1] ^= 0x40;
            }
        };
    }
}

/**
 * Generate a row's inputs and host reference afresh at figure size:
 * the set-up unit, timed.  It runs before every harness job, so set-up
 * is sampled across the whole run as the jobs are, and every job starts
 * from freshly made inputs.
 */
void
makeInputs(Row &row, bool corrupt)
{
    alignAddressCursor();
    const std::uint64_t t0 = nowNs();
    row.w = row.def->make();
    row.setupS.push_back((nowNs() - t0) * 1e-9);
    row.bodies.clear();
    for (const auto &v : row.w.variants)
        row.bodies.push_back(v.fn);
    if (corrupt)
        installCorruption(row);
}

/** Make every row once, in a seeded order. */
std::vector<Row>
makeRows(const Options &opt)
{
    dysel::support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 17);
    // Inputs are made in a fixed order, so the allocation history (and
    // with it peak memory) does not depend on the seed; the seed picks
    // the order the rows and their Async runs execute in.
    std::vector<Row> rows;
    for (const RowDef &d : rowDefs()) {
        Row r;
        r.def = &d;
        makeInputs(r, opt.corrupt);
        for (std::size_t v = 0; v < r.w.variants.size(); ++v)
            r.asyncOrder.push_back(static_cast<int>(v));
        rows.push_back(std::move(r));
    }
    for (std::size_t i = rows.size(); i > 1; --i)
        std::swap(rows[i - 1], rows[rng.nextBelow(i)]);
    for (Row &r : rows)
        for (std::size_t i = r.asyncOrder.size(); i > 1; --i)
            std::swap(r.asyncOrder[i - 1], r.asyncOrder[rng.nextBelow(i)]);
    return rows;
}

LaunchOptions
syncOptions()
{
    LaunchOptions o;
    o.orch = Orchestration::Sync;
    return o;
}

LaunchOptions
asyncOptions(int initial)
{
    LaunchOptions o;
    o.orch = Orchestration::Async;
    o.initialVariant = initial;
    return o;
}

/**
 * Host time of the Runtime::launch calls of one row in the traced run,
 * by launch kind, with the work-groups each variant ran (counted by the
 * body wrapper, so replayed per-variant cost is weighted by what really
 * executed).
 */
struct LaunchTally
{
    double plainNs = 0, plainBodyNs = 0;
    double profNs = 0, profBodyNs = 0;
    std::vector<double> plainGroups, profGroups; ///< per variant
    std::uint64_t profLaunches = 0;
    std::uint64_t profiledUnits = 0, profTotalUnits = 0;
    std::uint64_t groups = 0, events = 0;
    double jobNs = 0;
    /** Replayed cost-model time of the groups run, and their cache
     *  accesses (see replayCost). */
    double plainCostNs = 0, profCostNs = 0, accesses = 0;

    void
    merge(const LaunchTally &o)
    {
        plainNs += o.plainNs;
        plainBodyNs += o.plainBodyNs;
        profNs += o.profNs;
        profBodyNs += o.profBodyNs;
        plainGroups.resize(o.plainGroups.size());
        profGroups.resize(o.profGroups.size());
        for (std::size_t v = 0; v < o.plainGroups.size(); ++v) {
            plainGroups[v] += o.plainGroups[v];
            profGroups[v] += o.profGroups[v];
        }
        profLaunches += o.profLaunches;
        profiledUnits += o.profiledUnits;
        profTotalUnits += o.profTotalUnits;
        groups += o.groups;
        events += o.events;
        jobNs += o.jobNs;
        plainCostNs += o.plainCostNs;
        profCostNs += o.profCostNs;
        accesses += o.accesses;
    }
};

/** Kernel body time, and work-groups per variant of the current row,
 *  run on this thread (the traced run's body wrappers write them). */
thread_local std::uint64_t bodyNs = 0;
thread_local std::vector<double> variantGroups;

std::uint64_t
groupsOf(sim::Device &dev)
{
    if (auto *c = dynamic_cast<sim::CpuDevice *>(&dev))
        return c->groupsExecuted();
    return static_cast<sim::GpuDevice &>(dev).groupsExecuted();
}

/** Where launchLoop() reports host time. */
struct LoopProbe
{
    /** Host us of every Runtime::launch, in order. */
    std::vector<double> *launchUs = nullptr;
    /** Traced run: time by launch kind, and spans under @p cid. */
    LaunchTally *tally = nullptr;
    SpanLog *spans = nullptr;
    std::uint64_t cid = 0;
};

/**
 * The harness's own job loop (runSingleVariant / runDyselConfigured)
 * on a fresh device, with a timer around each Runtime::launch.  Returns
 * the virtual elapsed ns and the first iteration's report; @p ok turns
 * false if check() fails.
 */
std::pair<sim::TimeNs, LaunchReport>
launchLoop(Row &row, const LaunchOptions &base, bool profileFirst,
           const LoopProbe &probe, bool &ok)
{
    alignAddressCursor();
    const std::uint64_t j0 = nowNs();
    std::unique_ptr<sim::Device> dev;
    if (row.def->gpu)
        dev = std::make_unique<sim::GpuDevice>();
    else
        dev = std::make_unique<sim::CpuDevice>();
    dysel::runtime::Runtime rt(*dev);
    row.w.registerWith(rt);
    row.w.resetOutput();
    const sim::TimeNs start = dev->now();
    LaunchReport first;
    for (unsigned it = 0; it < row.w.iterations; ++it) {
        LaunchOptions o = base;
        o.profiling = profileFirst && it == 0;
        LaunchReport rep;
        const std::uint64_t g0 = groupsOf(*dev);
        const std::uint64_t e0 = dev->engine().eventsFired();
        const std::uint64_t b0 = bodyNs;
        const std::vector<double> v0 = variantGroups;
        const std::uint64_t l0 = nowNs();
        auto st = rt.launch(row.w.signature, row.w.units, row.w.args, o,
                            rep);
        const std::uint64_t l1 = nowNs();
        if (!st.ok())
            throw std::runtime_error("launch failed: " + st.toString());
        const double host = static_cast<double>(l1 - l0);
        if (probe.launchUs)
            probe.launchUs->push_back(host * 1e-3);
        if (LaunchTally *t = probe.tally) {
            const double body = static_cast<double>(bodyNs - b0);
            t->groups += groupsOf(*dev) - g0;
            std::vector<double> &byVariant =
                rep.profiled ? t->profGroups : t->plainGroups;
            for (std::size_t v = 0; v < byVariant.size(); ++v)
                byVariant[v] += variantGroups[v] - v0[v];
            t->events += dev->engine().eventsFired() - e0;
            if (rep.profiled) {
                t->profNs += host;
                t->profBodyNs += body;
                t->profLaunches++;
                t->profiledUnits += rep.profiledUnits;
                t->profTotalUnits += rep.totalUnits;
            } else {
                t->plainNs += host;
                t->plainBodyNs += body;
            }
        }
        if (probe.spans)
            probe.spans->add(rep.profiled ? "dysel.launch.profiled"
                                          : "dysel.launch.plain",
                             "dysel", l0, l1, probe.cid);
        if (it == 0)
            first = std::move(rep);
    }
    const sim::TimeNs elapsed = dev->now() - start;
    const std::uint64_t c0 = nowNs();
    ok = row.w.check() && ok;
    const std::uint64_t c1 = nowNs();
    if (probe.spans) {
        probe.spans->add("workloads.check", "workloads", c0, c1, probe.cid);
        probe.spans->add(row.def->name, "harness", j0, c1, probe.cid);
    }
    if (probe.tally)
        probe.tally->jobNs += static_cast<double>(c1 - j0);
    return {elapsed, std::move(first)};
}

/**
 * The latency job: DySel Sync over spmv-csr-random-cpu (10 launches,
 * the first profiled), through launchLoop() so each launch is timed.
 * One fixed job, so its launch percentiles never mix rows.
 */
constexpr const char *latencyRow = "spmv-csr-random-cpu";

/** Outcome of one untraced pass. */
struct PassResult
{
    double seconds = 0;
    PassCounts counts;
    std::uint64_t digest = 0;
    std::map<std::string, RowDigest> rows;
    /** Per job slot host seconds, in slot order. */
    std::vector<double> jobSeconds;
    /** Per latency job: its launches' host us. */
    std::vector<std::vector<double>> latencyUs;
    bool ok = true;
    /** Every latency job reproduced its row's harness Sync digest. */
    bool latencyDigestOk = true;
};

/** Fold per-row digests in row-name order (the row order is seeded). */
std::uint64_t
foldDigests(const std::map<std::string, RowDigest> &rows)
{
    Fnv f;
    for (const auto &[name, d] : rows) {
        f.add(name);
        f.add(d.oracle);
        f.add(d.sync);
        for (std::uint64_t a : d.async)
            f.add(a);
    }
    return f.h;
}

/**
 * One pass of every row through the public harness.  Every harness
 * job starts from freshly generated inputs (set-up, timed apart).
 * After each row, the latency job runs once; its virtual digest must
 * equal the harness's Sync digest of its row.
 */
PassResult
runPass(std::vector<Row> &rows, bool corrupt)
{
    PassResult p;
    Row *latency = nullptr;
    for (Row &row : rows)
        if (std::string(row.def->name) == latencyRow)
            latency = &row;
    std::vector<std::uint64_t> latencyDigests;
    for (Row &row : rows) {
        auto factory = factoryFor(row, &p.counts);
        RowDigest d;
        std::uint64_t s = 0;
        auto start = [&] {
            makeInputs(row, corrupt);
            alignAddressCursor();
            s = nowNs();
        };
        auto lap = [&] { p.jobSeconds.push_back((nowNs() - s) * 1e-9); };
        start();
        const auto o = dysel::workloads::runOracle(factory, row.w);
        lap();
        start();
        const auto sync =
            dysel::workloads::runDysel(factory, row.w, syncOptions());
        lap();
        d.async.resize(row.w.variants.size());
        bool asyncOk = true;
        for (int k : row.asyncOrder) {
            start();
            const auto async =
                dysel::workloads::runDysel(factory, row.w, asyncOptions(k));
            lap();
            asyncOk = asyncOk && async.ok;
            d.async[k] = dyselDigest(async, k);
        }
        for (const auto &run : o.runs)
            p.ok = p.ok && run.ok;
        p.ok = p.ok && sync.ok && asyncOk;
        d.oracle = oracleDigest(o);
        d.sync = dyselDigest(sync, -1);
        p.counts.jobs += 2 + row.asyncOrder.size();
        p.rows[row.def->name] = d;

        LoopProbe probe;
        probe.launchUs = &p.latencyUs.emplace_back();
        dysel::workloads::DyselRun run;
        bool ok = true;
        std::tie(run.elapsed, run.firstIteration) =
            launchLoop(*latency, syncOptions(), true, probe, ok);
        p.ok = p.ok && ok;
        latencyDigests.push_back(dyselDigest(run, -1));
    }
    for (std::uint64_t digest : latencyDigests)
        if (digest != p.rows.at(latencyRow).sync)
            p.latencyDigestOk = false;
    p.seconds = std::accumulate(p.jobSeconds.begin(), p.jobSeconds.end(),
                                0.0);
    p.digest = foldDigests(p.rows);
    return p;
}

/** pins.txt: "<row> <oracle|sync|asyncK> <hex digest>" per line. */
std::map<std::string, std::string>
loadPins(const std::string &path)
{
    std::map<std::string, std::string> pins;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string row, part, digest;
        if (ss >> row >> part >> digest)
            pins[row + " " + part] = digest;
    }
    return pins;
}

void
checkPins(Result &res, const std::map<std::string, std::string> &pins,
          const std::vector<Row> &rows, const PassResult &p)
{
    for (const Row &row : rows) {
        const RowDigest &d = p.rows.at(row.def->name);
        std::vector<std::pair<std::string, std::uint64_t>> parts = {
            {"oracle", d.oracle},
            {"sync", d.sync},
        };
        for (std::size_t k = 0; k < d.async.size(); ++k)
            parts.push_back({"async" + std::to_string(k), d.async[k]});
        for (const auto &[part, digest] : parts) {
            const std::string key = std::string(row.def->name) + " " + part;
            auto it = pins.find(key);
            if (it == pins.end())
                res.fail("no pinned digest for " + key);
            else if (it->second != hex(digest))
                res.fail("virtual digest of " + key + " is " + hex(digest)
                         + ", pinned " + it->second);
        }
    }
}

/** Print the pin table from one pass (every row, every Async run). */
void
printPins(const Options &opt)
{
    std::vector<Row> rows = makeRows(opt);
    const PassResult p = runPass(rows, false);
    for (const auto &[name, d] : p.rows) {
        std::cout << name << " oracle " << hex(d.oracle) << '\n'
                  << name << " sync " << hex(d.sync) << '\n';
        for (std::size_t k = 0; k < d.async.size(); ++k)
            std::cout << name << " async" << k << ' ' << hex(d.async[k])
                      << '\n';
    }
}

// ---------------------------------------------------------------------
// Traced run.

void
wrapBodies(Row &row)
{
    variantGroups.assign(row.w.variants.size(), 0.0);
    for (std::size_t i = 0; i < row.w.variants.size(); ++i) {
        row.w.variants[i].fn = [body = row.bodies[i], i](
                                   dysel::kdp::GroupCtx &g,
                                   const dysel::kdp::KernelArgs &a) {
            const std::uint64_t t = nowNs();
            body(g, a);
            bodyNs += nowNs() - t;
            variantGroups[i] += 1.0;
        };
    }
}

void
unwrapBodies(Row &row)
{
    for (std::size_t i = 0; i < row.w.variants.size(); ++i)
        row.w.variants[i].fn = row.bodies[i];
}

/** Cost-model replay of one row: per variant ns and cache accesses
 *  per work-group. */
struct CostSample
{
    std::vector<double> nsPerGroup, accessesPerGroup;
    std::uint64_t accesses = 0; ///< Cache::access calls of the replay
};

/**
 * Per variant, a contiguous window from the middle of the grid; its
 * first half only warms the caches and the second half is measured.
 */
CostSample
replayCost(const Row &row, unsigned samplesPerVariant)
{
    CostSample s;
    for (std::size_t vi = 0; vi < row.w.variants.size(); ++vi) {
        dysel::kdp::KernelVariant v = row.w.variants[vi];
        v.fn = row.bodies[vi];
        const std::uint64_t grid = v.groupsFor(row.w.units);
        const std::uint64_t n =
            std::min<std::uint64_t>(grid, samplesPerVariant);
        const std::uint64_t window = std::min(grid, 2 * n);
        const std::uint64_t first = (grid - window) / 2;
        CostReplay replay(row.def->gpu);
        replay.warm(v, row.w.args, first, window - n);
        replay.measure(v, row.w.args, first + window - n, n);
        s.accesses += replay.accesses;
        s.nsPerGroup.push_back(replay.nsPerGroup());
        s.accessesPerGroup.push_back(replay.accessesPerGroup());
    }
    return s;
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double
total(const std::vector<double> &a)
{
    return std::accumulate(a.begin(), a.end(), 0.0);
}

/** Per-group dispatch and per-launch orchestration, in isolation. */
struct RuntimeProbe
{
    double dispatchNsPerGroup = 0;
    double orchUsPerLaunch = 0;
};

/**
 * Dispatch and orchestration measured in isolation: a pool of two light
 * variants (one store per unit; they differ only in flops, so their
 * traces cost the cost model the same), launched through
 * Runtime::launch on a CPU device, plain and profiled.  Bodies and cost
 * model are cheap there and the replay resolves them, so launch time
 * minus bodies minus cost leaves the per-group dispatch (plain
 * launches) and the runtime's orchestration (profiled ones, priced
 * against the plain launch before them).  On the figure rows both
 * would drown in the replay's error on their costly groups: ~10% of
 * 10 us to 2 ms per group.  Medians over @p reps pairs of launches.
 */
RuntimeProbe
probeRuntime(unsigned reps)
{
    namespace kdp = dysel::kdp;
    constexpr std::uint32_t lanes = 8;
    constexpr std::uint64_t units = 1 << 16;
    const auto variant = [](const char *name, std::uint64_t flops) {
        kdp::KernelVariant v;
        v.name = name;
        v.groupSize = lanes;
        v.waFactor = lanes;
        v.sandboxIndex = {0};
        v.fn = [flops](kdp::GroupCtx &g, const kdp::KernelArgs &a) {
            const std::uint64_t t0 = nowNs();
            auto &out = a.buf<std::int32_t>(0);
            for (std::uint32_t l = 0; l < lanes; ++l) {
                const std::uint64_t u = g.unitBase() + l;
                g.store(out, u, static_cast<std::int32_t>(u * 40503u), l);
                g.flops(l, flops);
            }
            bodyNs += nowNs() - t0;
        };
        return v;
    };
    const kdp::KernelVariant light = variant("light", 4);
    const kdp::KernelVariant heavy = variant("heavy", 64);
    kdp::Buffer<std::int32_t> out(units, kdp::MemSpace::Global, "probe.out");
    kdp::KernelArgs args;
    args.add(out);

    CostReplay replay(false);
    const std::uint64_t grid = light.groupsFor(units);
    replay.warm(light, args, grid / 2 - 256, 256);
    replay.measure(light, args, grid / 2, 256);
    const double cost = replay.nsPerGroup();

    sim::CpuDevice dev;
    std::vector<double> dispatch, orch;
    for (unsigned r = 0; r < reps; ++r) {
        dysel::runtime::Runtime rt(dev);
        rt.addKernel("hostbench.probe", light);
        rt.addKernel("hostbench.probe", heavy);
        // Host time minus bodies, and groups, of a plain then a
        // profiled launch.
        double rest[2], groups[2];
        for (const bool profile : {false, true}) {
            LaunchOptions o = syncOptions();
            o.profiling = profile;
            o.initialVariant = 0;
            LaunchReport rep;
            const std::uint64_t g0 = dev.groupsExecuted();
            const std::uint64_t b0 = bodyNs;
            const std::uint64_t l0 = nowNs();
            auto st = rt.launch("hostbench.probe", units, args, o, rep);
            const double host = static_cast<double>(nowNs() - l0);
            if (!st.ok())
                throw std::runtime_error("probe launch failed: "
                                         + st.toString());
            if (rep.profiled != profile)
                throw std::runtime_error("probe launch profiling differs "
                                         "from its options");
            groups[profile] = static_cast<double>(dev.groupsExecuted() - g0);
            rest[profile] = host - static_cast<double>(bodyNs - b0);
        }
        dispatch.push_back(rest[0] / groups[0] - cost);
        // The plain launch just before prices each group's cost and
        // dispatch, so host-speed drift between the two mostly cancels.
        orch.push_back((rest[1] - rest[0] / groups[0] * groups[1]) * 1e-3);
    }
    RuntimeProbe p;
    p.dispatchNsPerGroup = median(dispatch);
    p.orchUsPerLaunch = median(orch);
    return p;
}

struct TracedPass
{
    double seconds = 0; ///< without the cost replays
    std::uint64_t digest = 0;
    bool ok = true;
    std::map<std::string, LaunchTally> rows;
    std::uint64_t replayedAccesses = 0;
};

/**
 * One pass of every row through launchLoop() with timed bodies.  Right
 * after each row's jobs, its cost model is replayed (untimed in the
 * pass), so replayed cost and launch times see the same host speed.
 */
TracedPass
runTracedPass(std::vector<Row> &rows, SpanLog &spans, std::uint64_t &cid,
              unsigned replaySamples)
{
    std::uint64_t replayNs = 0;
    TracedPass p;
    std::map<std::string, RowDigest> digests;
    const std::uint64_t t0 = nowNs();
    for (Row &row : rows) {
        wrapBodies(row);
        LaunchTally &t = p.rows[row.def->name];
        t.plainGroups.assign(row.w.variants.size(), 0.0);
        t.profGroups.assign(row.w.variants.size(), 0.0);
        LoopProbe probe;
        probe.tally = &t;
        probe.spans = &spans;
        RowDigest &d = digests[row.def->name];
        bool ok = true;
        dysel::workloads::OracleResult o;
        for (std::size_t i = 0; i < row.w.variants.size(); ++i) {
            LaunchOptions plain;
            plain.profiling = false;
            plain.initialVariant = static_cast<int>(i);
            bool vok = true;
            probe.cid = ++cid;
            auto [elapsed, rep] = launchLoop(row, plain, false, probe, vok);
            o.runs.push_back({row.w.variants[i].name, elapsed, vok});
            ok = ok && vok;
        }
        d.oracle = oracleDigest(o);
        // Sync, then Async with each initial variant in seeded order.
        std::vector<int> initials = {-1};
        initials.insert(initials.end(), row.asyncOrder.begin(),
                        row.asyncOrder.end());
        d.async.resize(row.w.variants.size());
        for (int initial : initials) {
            const LaunchOptions lo =
                initial < 0 ? syncOptions() : asyncOptions(initial);
            dysel::workloads::DyselRun run;
            bool dok = true;
            probe.cid = ++cid;
            std::tie(run.elapsed, run.firstIteration) =
                launchLoop(row, lo, true, probe, dok);
            (initial < 0 ? d.sync : d.async[initial]) =
                dyselDigest(run, initial);
            ok = ok && dok;
        }
        p.ok = p.ok && ok;
        unwrapBodies(row);
        const std::uint64_t r0 = nowNs();
        const CostSample c = replayCost(row, replaySamples);
        replayNs += nowNs() - r0;
        t.plainCostNs = dot(t.plainGroups, c.nsPerGroup);
        t.profCostNs = dot(t.profGroups, c.nsPerGroup);
        t.accesses = dot(t.plainGroups, c.accessesPerGroup)
                     + dot(t.profGroups, c.accessesPerGroup);
        p.replayedAccesses += c.accesses;
    }
    p.seconds = (nowNs() - t0 - replayNs) * 1e-9;
    p.digest = foldDigests(digests);
    return p;
}

} // namespace

Result
runSimSuite(const Options &opt)
{
    Result res;
    if (opt.printPins) {
        printPins(opt);
        return res;
    }
    const std::map<std::string, std::string> pins =
        opt.pinsPath.empty() ? std::map<std::string, std::string>{}
                             : loadPins(opt.pinsPath);
    if (pins.empty())
        res.fail("no pinned digests (pass --pins FILE)");

    // Set-up: input generation and host references of every row.  It
    // is repeated before every harness job (see runPass), so each row
    // has many samples spread over the run.
    std::vector<Row> rows = makeRows(opt);
    for (Row &row : rows)
        std::cerr << "hostbench: row " << row.def->name << " ("
                  << row.w.variants.size() << " variants, "
                  << row.w.iterations << " iterations)\n";

    // Untraced passes: the whole budget, or half of it before a
    // traced run.
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    std::vector<PassResult> passes;
    const std::uint64_t m0 = nowNs();
    do {
        passes.push_back(runPass(rows, opt.corrupt));
        const PassResult &p = passes.back();
        std::cerr << "hostbench: pass " << passes.size() << " "
                  << p.seconds << " s, " << p.counts.groups
                  << " groups\n";
    } while (!opt.tiny
             && (nowNs() - m0) * 1e-9 + passes.back().seconds / 2
                    < budget);

    const PassResult &first = passes.front();
    for (const PassResult &p : passes) {
        if (!p.ok)
            res.fail("a row's output failed its check()");
        if (!p.latencyDigestOk)
            res.fail("the latency job's virtual digest differs from the "
                     "harness's Sync run of its row");
        if (p.digest != first.digest || p.counts.groups != first.counts.groups
            || p.counts.events != first.counts.events)
            res.fail("virtual results or counts differ between passes");
        res.attempted += p.counts.jobs + p.latencyUs.size();
        if (!p.ok || !p.latencyDigestOk)
            res.failed += p.counts.jobs + p.latencyUs.size();
    }
    if (!pins.empty())
        checkPins(res, pins, rows, first);

    std::vector<double> passS;
    for (const PassResult &p : passes)
        passS.push_back(p.seconds);

    if (!opt.trace) {
        // Per job slot: the fast quartile over passes.  A pass is the
        // sum of its slots.  Set-up likewise per row, summed over rows.
        std::vector<double> slotUs;
        for (std::size_t j = 0; j < first.jobSeconds.size(); ++j) {
            std::vector<double> v;
            for (const PassResult &p : passes)
                v.push_back(p.jobSeconds[j] * 1e6);
            slotUs.push_back(fastQuartile(v));
        }
        const double wall =
            std::accumulate(slotUs.begin(), slotUs.end(), 0.0) * 1e-6;
        double setup = 0;
        std::size_t setups = 0;
        for (const Row &row : rows) {
            setup += fastQuartile(row.setupS);
            setups += row.setupS.size();
        }
        // Latency: per latency job the p50 and p99 over its launches,
        // then the fast quartile over the jobs.
        std::vector<double> p50, p99;
        std::size_t launches = 0;
        for (const PassResult &p : passes)
            for (const std::vector<double> &us : p.latencyUs) {
                p50.push_back(percentile(us, 0.50));
                p99.push_back(percentile(us, 0.99));
                launches += us.size();
            }
        std::cerr << "hostbench: " << passes.size() << " passes, "
                  << slotUs.size() << " job slots per pass, median pass "
                  << median(passS) << " s; " << setups
                  << " input generations; latency: " << p50.size()
                  << " jobs of " << latencyRow << ", " << launches
                  << " launches\n";
        res.add("setup_s", setup, "s");
        res.add("wall_s", wall, "s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        res.add("sim_groups_per_s",
                static_cast<double>(first.counts.groups) / wall, "1/s");
        res.add("jobs_per_s", static_cast<double>(first.counts.jobs) / wall,
                "1/s");
        res.add("latency_p50_us", fastQuartile(p50), "us");
        res.add("latency_p99_us", fastQuartile(p99), "us");
        return res;
    }

    // Traced passes for the other half of the budget.
    SpanLog spans(1 << 16);
    std::uint64_t cid = 0;
    std::vector<TracedPass> traced;
    const std::uint64_t t0 = nowNs();
    do {
        traced.push_back(
            runTracedPass(rows, spans, cid, opt.tiny ? 8 : 32));
        std::cerr << "hostbench: traced pass " << traced.size() << " "
                  << traced.back().seconds << " s\n";
    } while (!opt.tiny
             && (nowNs() - t0) * 1e-9 + traced.back().seconds / 2
                    < opt.seconds / 2);
    for (const TracedPass &p : traced) {
        if (!p.ok)
            res.fail("a traced row's output failed its check()");
        if (p.digest != first.digest)
            res.fail("traced run's virtual digest differs from the "
                     "untraced harness");
    }

    // Cost = replayed cost/group per variant, weighted by the groups
    // each variant ran.  Dispatch and orchestration come from the
    // isolated probe.  Launch time those do not account for -- chiefly
    // the replay's error on the rows' costly groups -- is left in
    // self.other_s.
    std::map<std::string, LaunchTally> sums;
    std::vector<double> tracedS;
    for (const TracedPass &p : traced) {
        tracedS.push_back(p.seconds);
        for (const auto &[name, t] : p.rows)
            sums[name].merge(t);
    }
    const RuntimeProbe probe = probeRuntime(opt.tiny ? 3 : 15);
    double bodyNs = 0, costNs = 0, launchNs = 0, jobNs = 0, accesses = 0;
    std::uint64_t groups = 0, events = 0, launches = 0;
    std::uint64_t profUnits = 0, profTotal = 0;
    for (const Row &row : rows) {
        const LaunchTally &t = sums.at(row.def->name);
        const double g = total(t.plainGroups) + total(t.profGroups);
        bodyNs += t.plainBodyNs + t.profBodyNs;
        costNs += t.plainCostNs + t.profCostNs;
        launchNs += t.plainNs + t.profNs;
        accesses += t.accesses;
        jobNs += t.jobNs;
        groups += t.groups;
        events += t.events;
        launches += t.profLaunches;
        profUnits += t.profiledUnits;
        profTotal += t.profTotalUnits;
        std::cerr << "hostbench: " << row.def->name << ": cost "
                  << (t.plainCostNs + t.profCostNs) / std::max(1.0, g)
                  << " ns/group; launch time minus bodies and cost "
                  << (t.plainNs + t.profNs - t.plainBodyNs - t.profBodyNs
                      - t.plainCostNs - t.profCostNs)
                         / std::max(1.0, g)
                  << " ns/group\n";
    }
    std::cerr << "hostbench: probe: dispatch " << probe.dispatchNsPerGroup
              << " ns/group, orchestration " << probe.orchUsPerLaunch
              << " us/launch\n";
    const double tracedWall = median(tracedS);
    const double nTraced = static_cast<double>(traced.size());
    const double g = static_cast<double>(std::max<std::uint64_t>(1, groups));

    // The serve, store, coalesce and predict layers do no work here:
    // their metrics stay 0.
    const double perPass = 1e-9 / nTraced;
    LayerValues v;
    v["kdp.body_ns_per_group"] = bodyNs / g;
    v["sim.cost_ns_per_group"] = costNs / g;
    v["sim.cache_accesses_per_group"] = accesses / g;
    v["sim.dispatch_ns_per_group"] = probe.dispatchNsPerGroup;
    v["sim.events_per_group"] = static_cast<double>(events) / g;
    v["dysel.orchestration_us_per_launch"] = probe.orchUsPerLaunch;
    v["dysel.profiled_unit_ratio"] =
        static_cast<double>(profUnits)
        / static_cast<double>(std::max<std::uint64_t>(1, profTotal));
    v["trace.overhead_pct"] = (tracedWall / median(passS) - 1.0) * 100.0;
    v["self.kdp_s"] = bodyNs * perPass;
    v["self.sim_cost_s"] = costNs * perPass;
    v["self.sim_dispatch_s"] = probe.dispatchNsPerGroup * g * perPass;
    v["self.dysel_s"] =
        probe.orchUsPerLaunch * 1e3 * static_cast<double>(launches) * perPass;
    v["self.workloads_s"] = (jobNs - launchNs) * perPass;
    v["self.traced_wall_s"] =
        std::accumulate(tracedS.begin(), tracedS.end(), 0.0) / nTraced;
    // Exact counts: repeat in every run of a seed.
    v["det.groups_per_round"] = static_cast<double>(first.counts.groups);
    v["det.events_per_round"] = static_cast<double>(first.counts.events);
    v["det.cache_accesses_replayed"] =
        static_cast<double>(traced.front().replayedAccesses);
    v["det.digest48"] =
        static_cast<double>(first.digest & ((1ull << 48) - 1));
    addLayerMetrics(res, std::move(v));
    if (!opt.traceOut.empty() && !spans.writeChrome(opt.traceOut))
        res.fail("cannot write trace " + opt.traceOut);
    return res;
}

} // namespace hostbench
