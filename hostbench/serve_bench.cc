/**
 * @file
 * serve-warm and serve-cold: closed-loop load on the dispatch service.
 *
 * One submitter thread issues bursts of JobSpecs through submitMany()
 * and waits on every JobHandle before the next burst (a fixed
 * in-flight window), against two CpuDevice workers with batching on.
 *
 * serve-warm: a small fixed key set (4 signatures x 3 size classes).
 * Set-up profiles every key once, saves the store, and the measured
 * service loads it -- dyseld's warm start -- so every measured job is
 * a store hit: service, store lookup, batching and per-work-group
 * dispatch dominate.
 *
 * serve-cold: a stream of new (signature, size-bucket) keys, each in
 * exactly one burst several times so followers coalesce; guard on and
 * a SelectionPredictor attached.  Signatures return in new buckets,
 * so some misses are predicted and the rest profiled.  Each round
 * starts a fresh store, predictor and service, so every round sees
 * the same cold stream.
 *
 * Every kernel variant writes the same output (variants differ in
 * cost only), so the XOR of per-job output digests is independent of
 * selection and scheduling and is checked against a reference the
 * benchmark computes on the host.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hh"
#include "dysel/predict/predictor.hh"
#include "dysel/store/selection_store.hh"
#include "kdp/buffer.hh"
#include "kdp/context.hh"
#include "serve/dispatch_service.hh"
#include "sim/cpu/cpu_device.hh"
#include "support/rng.hh"

namespace hostbench {

namespace {

namespace serve = dysel::serve;
namespace kdp = dysel::kdp;
namespace sim = dysel::sim;
using dysel::runtime::Runtime;

constexpr std::uint32_t laneCount = 8;
constexpr std::size_t windowJobs = 16; ///< jobs in flight per burst
constexpr unsigned variantsPerPool = 3; ///< variant names v0..v2
constexpr std::uint64_t warmSizes[] = {512, 2048, 8192};
constexpr unsigned coldWarmupSigs = 4;

/** The value a kernel writes at unit @p u of a job salted @p salt. */
inline std::int32_t
expected(std::int64_t salt, std::uint64_t u)
{
    return static_cast<std::int32_t>(
        ((u + 1) * 2654435761ull ^ static_cast<std::uint64_t>(salt) * 40503u)
        & 0x7fffffff);
}

/**
 * Per in-flight slot body timestamps of the traced run.  A slot's job
 * runs on one worker at a time; the submitter resets the slot before
 * submitMany() and reads it after result(), whose lock hand-off
 * orders the worker's writes before the reads.  One cache line per
 * slot: the two workers write different slots concurrently.
 */
struct alignas(64) SlotClock
{
    std::atomic<std::uint64_t> firstBody{0};
    std::atomic<std::uint64_t> lastBody{0};
    std::atomic<std::uint64_t> bodyNs{0};
    std::atomic<std::uint64_t> groups{0};
    std::atomic<std::uint64_t> doneNs{0};

    void
    reset()
    {
        firstBody.store(0, std::memory_order_relaxed);
        lastBody.store(0, std::memory_order_relaxed);
        bodyNs.store(0, std::memory_order_relaxed);
        groups.store(0, std::memory_order_relaxed);
        doneNs.store(0, std::memory_order_relaxed);
    }
};

SlotClock slotClocks[windowJobs];

/** Arguments: 0 out (int32), 1 units, 2 salt, 3 in-flight slot. */
void
body(kdp::GroupCtx &g, const kdp::KernelArgs &args, std::uint64_t flops)
{
    auto &out = args.buf<std::int32_t>(0);
    const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
    const std::int64_t salt = args.scalarInt(2);
    for (std::uint64_t u = g.unitBase(); u < g.unitBase() + g.waFactor();
         ++u) {
        if (u >= units)
            break;
        const auto lane = static_cast<std::uint32_t>(u % laneCount);
        g.store(out, u, expected(salt, u), lane);
        g.flops(lane, flops);
    }
}

kdp::KernelVariant
variant(std::string name, std::uint64_t flops, bool traced)
{
    kdp::KernelVariant v;
    v.name = std::move(name);
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    if (!traced) {
        v.fn = [flops](kdp::GroupCtx &g, const kdp::KernelArgs &a) {
            body(g, a, flops);
        };
        return v;
    }
    v.fn = [flops](kdp::GroupCtx &g, const kdp::KernelArgs &a) {
        const std::uint64_t t0 = nowNs();
        body(g, a, flops);
        const std::uint64_t t1 = nowNs();
        SlotClock &c = slotClocks[a.scalarInt(3)];
        // One writer per slot at a time: plain load/store, no RMW.
        const auto add = [](std::atomic<std::uint64_t> &a, std::uint64_t d) {
            a.store(a.load(std::memory_order_relaxed) + d,
                    std::memory_order_relaxed);
        };
        if (c.firstBody.load(std::memory_order_relaxed) == 0)
            c.firstBody.store(t0, std::memory_order_relaxed);
        c.lastBody.store(t1, std::memory_order_relaxed);
        add(c.bodyNs, t1 - t0);
        add(c.groups, 1);
    };
    return v;
}

dysel::compiler::KernelInfo
kernelInfo(const std::string &sig)
{
    dysel::compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", dysel::compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

/** One job of the fixed per-seed job set. */
struct JobDef
{
    std::uint32_t sig = 0;
    std::uint64_t units = 0;
    std::int64_t salt = 0;
};

/** The per-seed input of a serve workload. */
struct Plan
{
    std::vector<std::string> sigs;
    /** Index of the fast variant of every signature (seeded). */
    std::vector<unsigned> winner;
    /** The measured job sequence of one round, burst by burst. */
    std::vector<JobDef> jobs;
    /** Jobs run after set-up and before measuring (not checked). */
    std::vector<JobDef> warmup;
    std::uint64_t maxUnits = 0;
    std::uint64_t reference = 0; ///< XOR of per-job output digests
};

std::uint64_t
outputDigest(const kdp::Buffer<std::int32_t> &out, std::uint64_t units)
{
    Fnv f;
    for (std::uint64_t u = 0; u < units; ++u)
        f.add(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(out.at(u))));
    return f.h;
}

std::uint64_t
referenceDigest(const JobDef &j)
{
    Fnv f;
    for (std::uint64_t u = 0; u < j.units; ++u)
        f.add(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(expected(j.salt, u))));
    return f.h;
}

template <typename T>
void
shuffle(std::vector<T> &v, dysel::support::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

/**
 * Seeded winners with every variant winning equally often, so the
 * predictor's model sees the same mix under every seed.
 */
std::vector<unsigned>
balancedWinners(std::size_t sigs, dysel::support::Rng &rng)
{
    std::vector<unsigned> w(sigs);
    for (std::size_t s = 0; s < sigs; ++s)
        w[s] = static_cast<unsigned>(s % variantsPerPool);
    shuffle(w, rng);
    return w;
}

/**
 * serve-warm: 4 signatures x 3 size classes.  Burst k holds 8 jobs of
 * signature sig[k mod 4] and 8 of sig[(k+1) mod 4] -- two different
 * signatures, fusable within each half -- all of size class k mod 3,
 * so every 12 bursts cover every key twice.  Both halves of a burst
 * cost the same, so a round's latency p50 falls inside one size
 * class's mode rather than between a burst's early and late half.  The seed
 * permutes the signatures and fixes the salts and winners; the burst
 * structure, and so the amount and shape of work, never changes.
 */
Plan
warmPlan(const Options &opt)
{
    Plan p;
    dysel::support::Rng rng(opt.seed * 0x2545f4914f6cdd1dull + 1);
    std::vector<std::uint32_t> sig = {0, 1, 2, 3};
    for (std::uint32_t s : sig)
        p.sigs.push_back("warm" + std::to_string(s));
    p.winner = balancedWinners(p.sigs.size(), rng);
    shuffle(sig, rng);
    const std::size_t bursts = opt.tiny ? 2 : 72;
    const std::size_t half = windowJobs / 2;
    for (std::size_t k = 0; k < bursts; ++k)
        for (std::size_t h = 0; h < 2; ++h) {
            const std::uint32_t sg = sig[(k + h) % sig.size()];
            const std::uint64_t units = warmSizes[k % 3];
            for (std::size_t c = 0; c < half; ++c)
                p.jobs.push_back({sg, units,
                                  static_cast<std::int64_t>(
                                      rng.nextBelow(1u << 30))});
        }
    // Warm-up: one job per signature in permuted order, each in its own
    // submitMany call.  Least-loaded routing then alternates devices,
    // and affinity pins sig[0], sig[2] to one device and sig[1],
    // sig[3] to the other, so each burst's halves run on different
    // devices in every round.
    for (std::uint32_t sg : sig)
        p.warmup.push_back({sg, warmSizes[0], 1});
    return p;
}

/**
 * serve-cold: every (signature, bucket) key once per round, `copies`
 * jobs of it in one burst.  Signatures return in each new bucket, so
 * later buckets of a signature can be predicted from earlier ones.
 * The seed fixes the signature order within each bucket, the salts
 * and which signatures each variant wins, never the amount of work.
 */
Plan
coldPlan(const Options &opt)
{
    Plan p;
    dysel::support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 3);
    const unsigned nsig = opt.tiny ? 4 : 64;
    constexpr std::size_t copies = 4;
    // Buckets in ascending order: a signature's first bucket is
    // profiled, the next one can be predicted from it, and so on.  The
    // order is fixed because it decides how much profiling a round does.
    const std::uint64_t sizes[] = {1024, 2048, 4096, 8192};
    // Measured signatures first, then the warm-up's own signatures:
    // the warm-up never touches a measured key.
    for (unsigned s = 0; s < nsig + coldWarmupSigs; ++s)
        p.sigs.push_back((s < nsig ? "cold" : "coldwarmup")
                         + std::to_string(s));
    p.winner = balancedWinners(p.sigs.size(), rng);
    auto keyBursts = [&](std::uint32_t first, std::uint32_t count,
                         std::vector<JobDef> &out) {
        for (std::uint64_t units : sizes) {
            std::vector<std::uint32_t> order(count);
            for (std::uint32_t s = 0; s < count; ++s)
                order[s] = first + s;
            shuffle(order, rng);
            for (std::uint32_t s : order)
                for (std::size_t c = 0; c < copies; ++c)
                    out.push_back({s, units,
                                   static_cast<std::int64_t>(
                                       rng.nextBelow(1u << 30))});
        }
    };
    keyBursts(0, nsig, p.jobs);
    keyBursts(nsig, coldWarmupSigs, p.warmup);
    return p;
}

void
finishPlan(Plan &p)
{
    for (const JobDef &j : p.jobs) {
        p.maxUnits = std::max(p.maxUnits, j.units);
        p.reference ^= referenceDigest(j);
    }
    for (const JobDef &j : p.warmup)
        p.maxUnits = std::max(p.maxUnits, j.units);
}

/** Kernel-pool installer: one fast variant per signature (seeded). */
std::function<void(Runtime &)>
installer(const Plan &p, bool traced)
{
    return [sigs = p.sigs, winner = p.winner, traced](Runtime &rt) {
        for (std::size_t s = 0; s < sigs.size(); ++s) {
            for (unsigned v = 0; v < variantsPerPool; ++v) {
                const std::uint64_t flops =
                    v == winner[s] ? 100 : 2000 * (v + 1);
                static const char *const names[] = {"v0", "v1", "v2"};
                rt.addKernel(sigs[s], variant(names[v], flops, traced));
            }
            rt.setKernelInfo(sigs[s], kernelInfo(sigs[s]));
        }
    };
}

serve::ServiceConfig
serviceConfig(bool cold)
{
    serve::ServiceConfig c;
    c.batch.maxJobs = windowJobs;
    c.runtime.guard.enabled = cold;
    return c;
}

/** A service with two CPU devices and the plan's kernel pools. */
std::unique_ptr<serve::DispatchService>
makeService(dysel::store::SelectionStore &st, const Plan &p, bool cold,
            bool traced, dysel::predict::SelectionPredictor *pred)
{
    auto svc = std::make_unique<serve::DispatchService>(st,
                                                        serviceConfig(cold));
    for (int d = 0; d < 2; ++d)
        svc->addDevice(std::make_unique<sim::CpuDevice>());
    svc->registerKernelPool(installer(p, traced)).throwIfError();
    if (pred)
        svc->setPredictor(pred);
    svc->start();
    return svc;
}

/** Per-job host timings of the traced run (ns). */
struct JobSpan
{
    std::uint64_t id = 0;
    std::uint64_t submit0 = 0, submit1 = 0; ///< the burst's submitMany
    std::uint64_t first = 0, last = 0, done = 0, woke = 0;
    std::uint64_t bodyNs = 0, groups = 0;
    bool profiled = false;
    std::uint64_t profiledUnits = 0, units = 0;
};

/** What one measured round of bursts produced. */
struct RoundOut
{
    double seconds = 0;
    std::uint64_t attempted = 0, failed = 0, shed = 0;
    std::uint64_t checksum = 0;
    double submitNs = 0;
    std::vector<double> latencyUs;
};

/**
 * Run the plan's job sequence once through @p svc, burst by burst
 * (closed loop: each burst waits for all its results).  With
 * @p perJob each job of a burst gets its own submitMany() call: a
 * single call routes every job on the device loads seen before any of
 * them is enqueued, so a new key's copies would all land on one device
 * and never profile concurrently.  Span ids are offset by @p idBase so
 * they stay unique across rounds of fresh services.
 */
RoundOut
runRound(serve::DispatchService &svc, const Plan &p,
         std::vector<kdp::Buffer<std::int32_t>> &outs, bool traced,
         bool corrupt, bool perJob, std::uint64_t idBase,
         std::vector<JobSpan> *spans)
{
    RoundOut r;
    r.latencyUs.reserve(p.jobs.size());
    std::vector<serve::JobSpec> specs(windowJobs);
    std::vector<serve::JobHandle> handles(windowJobs);
    if (traced)
        for (std::size_t b = 0; b < windowJobs; ++b)
            specs[b].onDone([c = &slotClocks[b]](const serve::JobResult &) {
                c->doneNs.store(nowNs(), std::memory_order_relaxed);
            });
    const std::uint64_t t0 = nowNs();
    for (std::size_t j = 0; j < p.jobs.size(); j += windowJobs) {
        const std::size_t nb = std::min(windowJobs, p.jobs.size() - j);
        for (std::size_t b = 0; b < nb; ++b) {
            const JobDef &d = p.jobs[j + b];
            serve::JobSpec &s = specs[b];
            s.signature(p.sigs[d.sig]).units(d.units);
            s.mutableArgs().clear();
            s.mutableArgs()
                .add(outs[b])
                .add(static_cast<std::int64_t>(d.units))
                .add(d.salt)
                .add(static_cast<std::int64_t>(b));
            if (traced)
                slotClocks[b].reset();
        }
        const std::uint64_t s0 = nowNs();
        if (perJob) {
            for (std::size_t b = 0; b < nb; ++b)
                svc.submitMany(
                    std::span<const serve::JobSpec>(specs.data() + b, 1),
                    std::span<serve::JobHandle>(handles.data() + b, 1));
        } else {
            svc.submitMany(
                std::span<const serve::JobSpec>(specs.data(), nb),
                std::span<serve::JobHandle>(handles.data(), nb));
        }
        const std::uint64_t s1 = nowNs();
        r.submitNs += static_cast<double>(s1 - s0);
        for (std::size_t b = 0; b < nb; ++b) {
            const serve::JobResult &res = handles[b].result();
            const std::uint64_t woke = nowNs();
            r.latencyUs.push_back(static_cast<double>(woke - s0) * 1e-3);
            r.attempted++;
            if (res.ok()) {
                if (corrupt && j == 0 && b == 0)
                    outs[b].at(0) ^= 1; // one wrong output element
                r.checksum ^= outputDigest(outs[b], p.jobs[j + b].units);
            } else if (res.status.code()
                       == dysel::support::StatusCode::ResourceExhausted) {
                r.shed++;
            } else {
                r.failed++;
            }
            if (spans) {
                const SlotClock &c = slotClocks[b];
                JobSpan sp;
                sp.id = idBase + handles[b].id();
                sp.submit0 = s0;
                sp.submit1 = s1;
                sp.first = c.firstBody.load(std::memory_order_relaxed);
                sp.last = c.lastBody.load(std::memory_order_relaxed);
                sp.done = c.doneNs.load(std::memory_order_relaxed);
                sp.woke = woke;
                sp.bodyNs = c.bodyNs.load(std::memory_order_relaxed);
                sp.groups = c.groups.load(std::memory_order_relaxed);
                sp.profiled = res.report.profiled;
                sp.profiledUnits = res.report.profiledUnits;
                sp.units = p.jobs[j + b].units;
                spans->push_back(sp);
            }
            handles[b] = serve::JobHandle();
        }
    }
    r.seconds = (nowNs() - t0) * 1e-9;
    return r;
}

/** Work-group counts of the service's devices. */
struct DeviceCounts
{
    std::uint64_t groups = 0, events = 0;
};

DeviceCounts
deviceCounts(serve::DispatchService &svc)
{
    DeviceCounts c;
    for (unsigned i = 0; i < svc.deviceCount(); ++i) {
        auto &dev = static_cast<sim::CpuDevice &>(svc.device(i));
        c.groups += dev.groupsExecuted();
        c.events += dev.engine().eventsFired();
    }
    return c;
}

/** Service counters of interest, read after the service stopped. */
struct Counters
{
    std::uint64_t storeHit = 0, storeMiss = 0;
    std::uint64_t batchLaunches = 0, batchJobs = 0;
    std::uint64_t coalesceHit = 0, coalesceLeader = 0;
    std::uint64_t predictHit = 0, predictMiss = 0, predictDemoted = 0;

    void
    add(const dysel::support::MetricsRegistry &m)
    {
        storeHit += m.counterValue("store.hit");
        storeMiss += m.counterValue("store.miss");
        batchLaunches += m.counterValue("batch.launches");
        batchJobs += m.counterValue("batch.jobs");
        coalesceHit += m.counterValue("coalesce.hit");
        coalesceLeader += m.counterValue("coalesce.leader");
        predictHit += m.counterValue("predict.hit");
        predictMiss += m.counterValue("predict.miss");
        predictDemoted += m.counterValue("predict.demoted");
    }
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Cost-model time and cache accesses per replayed serve group. */
struct CostSample
{
    double nsPerGroup = 0;
    double accessesPerGroup = 0;
    std::uint64_t accesses = 0; ///< Cache::access calls of the replay
};

/**
 * The first 64 jobs of the round replayed through the cost model on
 * one core's caches, after the first job's groups warmed them.
 */
CostSample
replayCost(const Plan &p)
{
    kdp::Buffer<std::int32_t> out(p.maxUnits, kdp::MemSpace::Global,
                                  "replay.out");
    const auto v = variant("replay", 100, false);
    const auto argsOf = [&out](const JobDef &d) {
        kdp::KernelArgs args;
        args.add(out)
            .add(static_cast<std::int64_t>(d.units))
            .add(d.salt)
            .add(static_cast<std::int64_t>(0));
        return args;
    };
    CostReplay replay(false);
    replay.warm(v, argsOf(p.jobs[0]), 0, v.groupsFor(p.jobs[0].units));
    for (std::size_t j = 0; j < std::min<std::size_t>(p.jobs.size(), 64);
         ++j)
        replay.measure(v, argsOf(p.jobs[j]), 0,
                       v.groupsFor(p.jobs[j].units));
    return {replay.nsPerGroup(), replay.accessesPerGroup(), replay.accesses};
}

/**
 * Time SelectionStore::lookup replayed over the round's key sequence;
 * @p hits counts the lookups that found a valid record.
 */
double
lookupNs(const dysel::store::SelectionStore &st, const Plan &p,
         const std::string &fingerprint, std::size_t &hits)
{
    const int reps = 20;
    hits = 0;
    const std::uint64_t t0 = nowNs();
    for (int r = 0; r < reps; ++r)
        for (const JobDef &j : p.jobs)
            hits += st.lookup(p.sigs[j.sig], fingerprint, j.units) ? 1 : 0;
    return static_cast<double>(nowNs() - t0)
           / static_cast<double>(reps * p.jobs.size());
}

/**
 * A started service with its store (and predictor for serve-cold).
 * Members are destroyed service first: it refers to the other two.
 */
struct Served
{
    std::unique_ptr<dysel::store::SelectionStore> store;
    std::unique_ptr<dysel::predict::SelectionPredictor> pred;
    std::unique_ptr<serve::DispatchService> svc;
    /** Device work done before measuring (the warm-up). */
    DeviceCounts base;
};

/** Measured rounds of one phase (traced or not). */
struct Phase
{
    std::vector<double> roundS;
    std::vector<double> roundP50Us, roundP99Us; ///< per round
    std::vector<double> roundGroups; ///< device work-groups per round
    std::vector<JobSpan> spans;
    Counters counters;
    DeviceCounts devices;
    double submitNs = 0;
    double seconds = 0;
    std::uint64_t jobs = 0;
    std::vector<double> setupS, saveMs, loadMs, lookupNs;
    /** Set-up parts: serve-warm's profiling service, then the measured
     *  service's start and warm-up. */
    std::vector<double> profileS, startS, warmS;
};

} // namespace

Result
runServe(const Options &opt, bool cold)
{
    Result res;
    Plan plan = cold ? coldPlan(opt) : warmPlan(opt);
    finishPlan(plan);
    const std::string storePath =
        (std::filesystem::path(opt.workDir)
         / ("hostbench-" + opt.workload + ".store.json"))
            .string();
    const std::string fingerprint = sim::CpuDevice().fingerprint();
    std::cerr << "hostbench: " << opt.workload << ": " << plan.sigs.size()
              << " signatures, " << plan.jobs.size()
              << " jobs per round, window " << windowJobs << '\n';

    std::uint64_t shed = 0;
    std::vector<kdp::Buffer<std::int32_t>> outs;
    outs.reserve(windowJobs);
    for (std::size_t b = 0; b < windowJobs; ++b)
        outs.emplace_back(plan.maxUnits, kdp::MemSpace::Global, "out");

    auto checkRound = [&](const RoundOut &r, bool checksum) {
        if (r.failed || r.shed)
            res.fail(std::to_string(r.failed) + " failed and "
                     + std::to_string(r.shed) + " shed jobs");
        if (checksum && r.checksum != plan.reference)
            res.fail("output checksum differs from the host reference");
    };

    // Set-up of one measured service.  serve-warm: profile every key
    // once through a throwaway service, save the store, load it into
    // the measured service's store (dyseld's warm start), then one
    // warm-up round.  serve-cold: a fresh store, predictor and service
    // with a warm-up on signatures the measured round never uses.
    auto setUp = [&](bool traced, Phase &ph) {
        const std::uint64_t t0 = nowNs();
        Served s;
        s.store = std::make_unique<dysel::store::SelectionStore>();
        if (cold) {
            s.pred = std::make_unique<dysel::predict::SelectionPredictor>();
        } else {
            dysel::store::SelectionStore profStore;
            const std::uint64_t p0 = nowNs();
            auto prof = makeService(profStore, plan, false, false, nullptr);
            // One job per distinct key of the round.
            Plan keys = plan;
            keys.jobs.clear();
            std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
            for (const JobDef &j : plan.jobs)
                if (seen.insert({j.sig, j.units}).second)
                    keys.jobs.push_back({j.sig, j.units, 1});
            checkRound(runRound(*prof, keys, outs, false, false, false, 0,
                                nullptr),
                       false);
            prof->stop();
            const std::uint64_t s0 = nowNs();
            ph.profileS.push_back((s0 - p0) * 1e-9);
            profStore.saveFile(storePath).throwIfError();
            const std::uint64_t s1 = nowNs();
            s.store->loadFile(storePath).throwIfError();
            ph.saveMs.push_back((s1 - s0) * 1e-6);
            ph.loadMs.push_back((nowNs() - s1) * 1e-6);
        }
        const std::uint64_t m0 = nowNs();
        s.svc = makeService(*s.store, plan, cold, traced, s.pred.get());
        const std::uint64_t w0 = nowNs();
        ph.startS.push_back((w0 - m0) * 1e-9);
        Plan warm = plan;
        warm.jobs = plan.warmup;
        checkRound(runRound(*s.svc, warm, outs, traced, false, true, 0,
                            nullptr),
                   false);
        // The warm-up warms the service, not the model: a predictor
        // trained on it would call every measured signature's first
        // bucket from features alone (they share one KernelInfo), and
        // those keys would never be profiled.  Untrained, the round
        // profiles keys until the predictor is confident.
        if (s.pred)
            s.pred->clear();
        ph.warmS.push_back((nowNs() - w0) * 1e-9);
        ph.setupS.push_back((nowNs() - t0) * 1e-9);
        // drain() orders the workers' device updates before this read.
        s.svc->drain();
        s.base = deviceCounts(*s.svc);
        return s;
    };

    // After a round's service stops: counters, device work, and (on
    // serve-cold) dyseld's shutdown persistence and its reload.
    auto tearDown = [&](Served &s, Phase &ph, bool traced) {
        s.svc->stop();
        ph.counters.add(s.svc->metrics());
        const DeviceCounts dc = deviceCounts(*s.svc);
        ph.devices.groups += dc.groups - s.base.groups;
        ph.devices.events += dc.events - s.base.events;
        s.svc.reset();
        if (cold) {
            const std::uint64_t s0 = nowNs();
            s.store->saveFile(storePath).throwIfError();
            const std::uint64_t s1 = nowNs();
            dysel::store::SelectionStore back;
            back.loadFile(storePath).throwIfError();
            ph.saveMs.push_back((s1 - s0) * 1e-6);
            ph.loadMs.push_back((nowNs() - s1) * 1e-6);
            if (back.size() != s.store->size())
                res.fail("reloaded store lost records");
        }
        if (traced) {
            std::size_t hits = 0;
            ph.lookupNs.push_back(lookupNs(*s.store, plan, fingerprint, hits));
            if (!cold && hits != 20 * plan.jobs.size())
                res.fail("warm store lookup replay missed a key");
        }
    };

    // Measured rounds for @p budget seconds, each on a freshly set-up
    // service: set-up is timed once per round, and no round inherits
    // another's affinity, store or predictor state.
    auto measure = [&](bool traced, double budget, bool corrupt) {
        Phase ph;
        if (traced)
            ph.spans.reserve(1 << 20);
        const std::uint64_t m0 = nowNs();
        do {
            Served s = setUp(traced, ph);
            // Every round's fresh service restarts job ids; offset them.
            const std::uint64_t idBase = ph.roundS.size() << 32;
            const RoundOut r = runRound(*s.svc, plan, outs, traced,
                                        corrupt && ph.roundS.empty(), cold,
                                        idBase,
                                        traced ? &ph.spans : nullptr);
            checkRound(r, true);
            ph.roundS.push_back(r.seconds);
            ph.seconds += r.seconds;
            ph.submitNs += r.submitNs;
            ph.jobs += r.attempted;
            ph.roundP50Us.push_back(percentile(r.latencyUs, 0.50));
            // About 1000 jobs per round: >= 10 lie beyond its p99.
            ph.roundP99Us.push_back(percentile(r.latencyUs, 0.99));
            res.attempted += r.attempted;
            res.failed += r.failed + r.shed;
            shed += r.shed;
            const std::uint64_t groupsBefore = ph.devices.groups;
            tearDown(s, ph, traced);
            ph.roundGroups.push_back(
                static_cast<double>(ph.devices.groups - groupsBefore));
        } while (!opt.tiny && (nowNs() - m0) * 1e-9 < budget);
        std::filesystem::remove(storePath);
        return ph;
    };

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    Phase plain = measure(false, budget, opt.corrupt);
    std::vector<double> rates;
    for (double sec : plain.roundS)
        rates.push_back(static_cast<double>(plan.jobs.size()) / sec);
    const double jobsPerS = median(rates);
    std::cerr << "hostbench: " << plain.roundS.size() << " rounds, "
              << plain.jobs << " latency samples, jobs/s per "
              << "round p25/p50/p75 " << percentile(rates, 0.25) << " / "
              << jobsPerS << " / " << percentile(rates, 0.75)
              << ", p50 latency per round p25/p50/p75 "
              << percentile(plain.roundP50Us, 0.25) << " / "
              << median(plain.roundP50Us) << " / "
              << percentile(plain.roundP50Us, 0.75) << " us\n";
    std::cerr << "hostbench: set-up per round, fast quartiles (ms): total "
              << fastQuartile(plain.setupS) * 1e3;
    if (!cold)
        std::cerr << ", profiling " << fastQuartile(plain.profileS) * 1e3
                  << ", save " << fastQuartile(plain.saveMs) << ", load "
                  << fastQuartile(plain.loadMs);
    std::cerr << ", service start " << fastQuartile(plain.startS) * 1e3
              << ", warm-up " << fastQuartile(plain.warmS) * 1e3 << "\n";

    if (!opt.trace) {
        // Per round, then the fast quartile over rounds (for rates, the
        // rate of the fast-quartile round time).  A round's work-groups
        // depend on how batches and profiling fell out, so they are
        // taken as their median over rounds.
        const double wall = fastQuartile(plain.roundS);
        res.add("setup_s", fastQuartile(plain.setupS), "s");
        res.add("wall_s", wall, "s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        res.add("sim_groups_per_s", median(plain.roundGroups) / wall, "1/s");
        res.add("jobs_per_s", static_cast<double>(plan.jobs.size()) / wall,
                "1/s");
        res.add("latency_p50_us", fastQuartile(plain.roundP50Us), "us");
        res.add("latency_p99_us", fastQuartile(plain.roundP99Us), "us");
        return res;
    }

    Phase tr = measure(true, opt.seconds / 2, false);
    const CostSample cost = replayCost(plan);

    // Per-job spans along the critical path of each burst.
    std::vector<double> queueUs, execUs, completeUs, wakeUs;
    double bodyNs = 0, plainExecNs = 0, profExecNs = 0;
    std::uint64_t groups = 0, plainGroups = 0, profGroups = 0, profJobs = 0;
    std::uint64_t profUnits = 0, profTotal = 0;
    for (const JobSpan &s : tr.spans) {
        if (!s.first || !s.done)
            continue;
        queueUs.push_back(
            (static_cast<double>(s.first) - static_cast<double>(s.submit1))
            * 1e-3);
        execUs.push_back((s.last - s.first) * 1e-3);
        completeUs.push_back(
            (static_cast<double>(s.done) - static_cast<double>(s.last))
            * 1e-3);
        wakeUs.push_back(
            (static_cast<double>(s.woke) - static_cast<double>(s.done))
            * 1e-3);
        bodyNs += static_cast<double>(s.bodyNs);
        groups += s.groups;
        if (s.profiled) {
            profExecNs += static_cast<double>(s.last - s.first) - s.bodyNs;
            profGroups += s.groups;
            profJobs++;
            profUnits += s.profiledUnits;
            profTotal += s.units;
        } else {
            plainExecNs += static_cast<double>(s.last - s.first) - s.bodyNs;
            plainGroups += s.groups;
        }
    }
    const double dispatchPerGroup =
        plainGroups ? plainExecNs / static_cast<double>(plainGroups)
                          - cost.nsPerGroup
                    : 0.0;
    const double orchUs =
        profJobs ? (profExecNs
                    - (cost.nsPerGroup + dispatchPerGroup) * profGroups)
                       / static_cast<double>(profJobs) * 1e-3
                 : 0.0;

    LayerValues v;
    v["kdp.body_ns_per_group"] =
        bodyNs / static_cast<double>(std::max<std::uint64_t>(1, groups));
    v["sim.cost_ns_per_group"] = cost.nsPerGroup;
    v["sim.cache_accesses_per_group"] = cost.accessesPerGroup;
    v["sim.dispatch_ns_per_group"] = dispatchPerGroup;
    v["sim.events_per_group"] = ratio(tr.devices.events, tr.devices.groups);
    v["dysel.orchestration_us_per_launch"] = orchUs;
    v["dysel.profiled_unit_ratio"] = ratio(profUnits, profTotal);
    v["serve.submit_ns_per_job"] =
        tr.submitNs
        / static_cast<double>(std::max<std::uint64_t>(1, tr.jobs));
    v["serve.queue_us_p50"] = median(queueUs);
    v["serve.exec_us_p50"] = median(execUs);
    v["serve.complete_us_p50"] = median(completeUs);
    v["serve.wake_us_p50"] = median(wakeUs);
    v["serve.batch_occupancy"] =
        ratio(tr.counters.batchJobs, tr.counters.batchLaunches);
    v["serve.jobs_shed"] = static_cast<double>(shed);
    v["store.hit_ratio"] = ratio(
        tr.counters.storeHit, tr.counters.storeHit + tr.counters.storeMiss);
    v["store.lookup_ns"] = median(tr.lookupNs);
    v["store.load_ms"] = median(tr.loadMs);
    v["store.save_ms"] = median(tr.saveMs);
    v["coalesce.hit_ratio"] =
        ratio(tr.counters.coalesceHit,
              tr.counters.coalesceHit + tr.counters.coalesceLeader);
    v["predict.hit_ratio"] =
        ratio(tr.counters.predictHit,
              tr.counters.predictHit + tr.counters.predictMiss);
    v["predict.demotions"] = static_cast<double>(tr.counters.predictDemoted);

    // Tracing cost: untraced vs traced throughput.
    std::vector<double> trRates;
    for (double sec : tr.roundS)
        trRates.push_back(static_cast<double>(plan.jobs.size()) / sec);
    v["trace.overhead_pct"] = (jobsPerS / median(trRates) - 1.0) * 100.0;

    // Self time per layer on the critical path of every burst: the
    // burst's submit call, then its last-woken job's queue wait, own
    // kernel bodies, cost model and dispatch of its groups, the rest
    // of its execution (runtime orchestration), completion and
    // wake-up.  self.other_s is the submitter's own loop.
    double submitS = 0, queueS = 0, kdpS = 0, costS = 0, dispatchS = 0,
           dyselS = 0, completeS = 0, wakeS = 0;
    for (std::size_t i = 0; i < tr.spans.size();) {
        std::size_t crit = i, j = i;
        for (; j < tr.spans.size()
               && tr.spans[j].submit0 == tr.spans[i].submit0;
             ++j)
            if (tr.spans[j].woke > tr.spans[crit].woke)
                crit = j;
        const JobSpan &s = tr.spans[crit];
        const auto d = [](std::uint64_t from, std::uint64_t to) {
            return (static_cast<double>(to) - static_cast<double>(from))
                   * 1e-9;
        };
        submitS += d(s.submit0, s.submit1);
        if (s.first && s.done) {
            const double g = static_cast<double>(s.groups);
            queueS += d(s.submit1, s.first);
            kdpS += s.bodyNs * 1e-9;
            costS += g * cost.nsPerGroup * 1e-9;
            dispatchS += g * dispatchPerGroup * 1e-9;
            dyselS += d(s.first, s.last) - s.bodyNs * 1e-9
                      - g * (cost.nsPerGroup + dispatchPerGroup) * 1e-9;
            completeS += d(s.last, s.done);
            wakeS += d(s.done, s.woke);
        } else {
            queueS += d(s.submit1, s.woke);
        }
        i = j;
    }
    v["self.serve_submit_s"] = submitS;
    v["self.serve_queue_s"] = queueS;
    v["self.kdp_s"] = kdpS;
    v["self.sim_cost_s"] = costS;
    v["self.sim_dispatch_s"] = dispatchS;
    v["self.dysel_s"] = dyselS;
    v["self.serve_complete_s"] = completeS;
    v["self.serve_wake_s"] = wakeS;
    v["self.traced_wall_s"] = tr.seconds;
    // serve-warm's store hit ratio and the output digest repeat
    // exactly; groups and events per round depend on how batches
    // formed, which depends on thread timing.
    v["det.groups_per_round"] =
        static_cast<double>(tr.devices.groups) / tr.roundS.size();
    v["det.events_per_round"] =
        static_cast<double>(tr.devices.events) / tr.roundS.size();
    v["det.cache_accesses_replayed"] = static_cast<double>(cost.accesses);
    v["det.digest48"] =
        static_cast<double>(plan.reference & ((1ull << 48) - 1));
    addLayerMetrics(res, std::move(v));

    if (!opt.traceOut.empty()) {
        // The first 8192 jobs, 5 spans each.
        SpanLog log(5 * 8192);
        for (const JobSpan &s : tr.spans) {
            log.add("serve.submit", "serve.submit", s.submit0, s.submit1,
                    s.id);
            if (!s.first || !s.done)
                continue;
            log.add("serve.queue", "serve.queue", s.submit1, s.first, s.id);
            log.add("device.exec", "device.exec", s.first, s.last, s.id);
            log.add("serve.complete", "serve.complete", s.last, s.done,
                    s.id);
            log.add("serve.wake", "serve.wake", s.done, s.woke, s.id);
        }
        if (!log.writeChrome(opt.traceOut))
            res.fail("cannot write trace " + opt.traceOut);
    }
    return res;
}

} // namespace hostbench
