#include "loadgen.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "dysel/fed/replicator.hh"
#include "kdp/args.hh"
#include "kdp/buffer.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"
#include "support/rng.hh"

namespace dysel {
namespace serve {

namespace {

constexpr std::uint32_t laneCount = 8;

/**
 * Work kernel: writes a position digest into out[unit], burns flops.
 * Every variant computes the SAME output -- variants differ only in
 * cost -- so a run's output checksum is invariant under selection
 * policy (which variant won, who profiled which slice) and compares
 * across bench axes.
 */
kdp::KernelVariant
workKernel(const char *name, std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [flops_per_unit](kdp::GroupCtx &g,
                            const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u,
                    static_cast<std::int32_t>((u * 2654435761ull)
                                              & 0x7fffffff),
                    lane);
            g.flops(lane, flops_per_unit);
        }
    };
    return v;
}

compiler::KernelInfo
regularInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** FNV-1a 64-bit over one job's output values. */
std::uint64_t
outputHash(const kdp::Buffer<std::int32_t> &out, std::uint64_t units)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t u = 0; u < units; ++u) {
        auto v = static_cast<std::uint32_t>(out.at(u));
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** 16-hex-digit rendering (JSON-safe: doubles lose 64-bit ints). */
std::string
hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

LoadGenReport runImpl(const LoadGenConfig &cfg,
                      predict::SelectionPredictor *predictor);

} // namespace

support::Json
LoadGenReport::toJson() const
{
    using support::Json;
    Json cfg = Json::object();
    cfg.set("submitters", Json(static_cast<double>(config.submitters)));
    cfg.set("devices", Json(static_cast<double>(config.devices)));
    cfg.set("signatures", Json(static_cast<double>(config.signatures)));
    cfg.set("size_classes",
            Json(static_cast<double>(config.sizeClasses)));
    cfg.set("base_units", Json(static_cast<double>(config.baseUnits)));
    cfg.set("jobs_per_submitter",
            Json(static_cast<double>(config.jobsPerSubmitter)));
    cfg.set("burst", Json(static_cast<double>(config.burst)));
    cfg.set("max_batch_jobs",
            Json(static_cast<double>(config.maxBatchJobs)));
    cfg.set("batch_window_ns",
            Json(static_cast<double>(config.batchWindowNs)));
    cfg.set("variants", Json(static_cast<double>(config.variants)));
    cfg.set("profile_repeats",
            Json(static_cast<double>(config.profileRepeats)));
    cfg.set("guard", Json(config.guard));
    cfg.set("sweep", Json(config.sweep));
    cfg.set("coalesce", Json(config.coalesce));
    cfg.set("max_queue_depth",
            Json(static_cast<double>(config.maxQueueDepth)));
    cfg.set("admission", Json(config.admission == AdmissionPolicy::Shed
                                  ? "shed"
                                  : "block"));
    cfg.set("fault_rate", Json(config.faultRate));
    cfg.set("seed", Json(static_cast<double>(config.seed)));
    cfg.set("predict", Json(config.predict));
    cfg.set("predict_threshold", Json(config.predictThreshold));
    cfg.set("pretrain_laps",
            Json(static_cast<double>(config.pretrainLaps)));
    cfg.set("audit_rate", Json(config.auditRate));

    Json jobs = Json::object();
    jobs.set("submitted", Json(static_cast<double>(jobsSubmitted)));
    jobs.set("completed", Json(static_cast<double>(jobsCompleted)));
    jobs.set("failed", Json(static_cast<double>(jobsFailed)));
    jobs.set("shed", Json(static_cast<double>(jobsShed)));

    Json coalesce = Json::object();
    coalesce.set("leaders",
                 Json(static_cast<double>(coalesceLeaders)));
    coalesce.set("followers",
                 Json(static_cast<double>(coalesceFollowers)));
    coalesce.set("hits", Json(static_cast<double>(coalesceHits)));
    coalesce.set("hit_rate", Json(coalesceHitRate));

    Json batch = Json::object();
    batch.set("launches", Json(static_cast<double>(batchLaunches)));
    batch.set("jobs", Json(static_cast<double>(batchJobs)));
    batch.set("demoted", Json(static_cast<double>(batchDemoted)));
    batch.set("avg_size", Json(avgBatchSize));

    Json predict = Json::object();
    predict.set("hits", Json(static_cast<double>(predictHits)));
    predict.set("misses", Json(static_cast<double>(predictMisses)));
    predict.set("demotions",
                Json(static_cast<double>(predictDemotions)));
    predict.set("trained", Json(static_cast<double>(predictTrained)));

    Json fed = Json::object();
    fed.set("warm_hits", Json(static_cast<double>(fedWarmHits)));
    fed.set("leases", Json(static_cast<double>(fedLeases)));
    fed.set("fallbacks", Json(static_cast<double>(fedFallbacks)));
    fed.set("profiled_keys",
            Json(static_cast<double>(profiledKeys.size())));
    Json keyList = Json::array();
    for (const auto &k : profiledKeys)
        keyList.push(Json(k));
    fed.set("profiled_key_list", std::move(keyList));

    Json audit = Json::object();
    audit.set("samples", Json(static_cast<double>(auditSamples)));
    audit.set("demotions", Json(static_cast<double>(auditDemotions)));
    audit.set("probe_failures",
              Json(static_cast<double>(auditProbeFailures)));
    audit.set("mean_regret", Json(auditMeanRegret));

    Json out = Json::object();
    out.set("config", std::move(cfg));
    out.set("jobs", std::move(jobs));
    out.set("wall_seconds", Json(wallSeconds));
    out.set("jobs_per_sec", Json(jobsPerSec));
    out.set("p50_latency_us", Json(p50LatencyUs));
    out.set("p99_latency_us", Json(p99LatencyUs));
    out.set("profiled_units", Json(static_cast<double>(profiledUnits)));
    out.set("total_units", Json(static_cast<double>(totalUnits)));
    out.set("profiled_unit_ratio", Json(profiledUnitRatio));
    out.set("store_hits", Json(static_cast<double>(storeHits)));
    out.set("store_hit_rate", Json(storeHitRate));
    out.set("coalesce", std::move(coalesce));
    out.set("batch", std::move(batch));
    out.set("predict", std::move(predict));
    out.set("fed", std::move(fed));
    out.set("audit", std::move(audit));
    out.set("output_checksum", Json(hex16(outputChecksum)));
    return out;
}

namespace {

LoadGenReport
runImpl(const LoadGenConfig &cfg,
        predict::SelectionPredictor *predictor)
{
    using clock = std::chrono::steady_clock;

    store::SelectionStore localStore;
    store::SelectionStore &store =
        cfg.externalStore ? *cfg.externalStore : localStore;
    ServiceConfig scfg;
    scfg.coalesce = cfg.coalesce;
    scfg.affinity = cfg.affinity;
    scfg.maxQueueDepth = cfg.maxQueueDepth;
    scfg.admission = cfg.admission;
    scfg.batch.maxJobs = cfg.maxBatchJobs;
    scfg.batch.windowNs = cfg.batchWindowNs;
    scfg.runtime.guard.enabled = cfg.guard;
    scfg.audit.sampleRate = cfg.auditRate;
    DispatchService svc(store, scfg);
    if (predictor)
        svc.setPredictor(predictor);
    if (cfg.federation)
        svc.setFederation(cfg.federation);

    // Exactly-once accounting for the fleet test: every local
    // profiling pass records its key.  The predictor owns the
    // observer slot when attached, so this rides only without it.
    std::mutex profiledMu;
    std::vector<std::string> profiledKeys;
    if (!predictor) {
        store.setProfileObserver(
            [&](const store::SelectionRecord &rec) {
                std::lock_guard<std::mutex> lock(profiledMu);
                profiledKeys.push_back(
                    rec.signature + "|" + rec.device + "|"
                    + std::to_string(rec.bucket));
            });
    }

    sim::FaultConfig fcfg;
    fcfg.launchFailProb = cfg.faultRate;
    fcfg.seed = cfg.seed ^ 0xfa01d;
    sim::FaultInjector faults(fcfg);

    for (unsigned d = 0; d < cfg.devices; ++d) {
        const unsigned idx =
            svc.addDevice(std::make_unique<sim::CpuDevice>());
        if (cfg.faultRate > 0.0)
            svc.device(idx).setFaultInjector(&faults);
    }

    // Pre-register every signature's pool on every runtime -- one
    // kernel-pool installer for the whole fleet -- so the measured
    // loop exercises dispatch, not registration.
    std::vector<std::string> sigs;
    for (unsigned s = 0; s < cfg.signatures; ++s)
        sigs.push_back("hot" + std::to_string(s));
    // One fast winner plus variants-1 slower decoys per pool; every
    // decoy costs a profiling slice on a cold launch.
    const unsigned variants = std::max(2u, cfg.variants);
    svc.registerKernelPool([sigs, variants, fast = cfg.fastFlops,
                            slow = cfg.slowFlops](runtime::Runtime &rt) {
           for (const auto &sig : sigs) {
               rt.addKernel(sig, workKernel("fast", fast));
               for (unsigned v = 1; v < variants; ++v) {
                   const std::string name = "slow" + std::to_string(v);
                   rt.addKernel(sig,
                                workKernel(name.c_str(), slow * v));
               }
               rt.setKernelInfo(sig, regularInfo(sig));
           }
       }).throwIfError();
    svc.start();
    if (cfg.onStart)
        cfg.onStart(svc);

    const std::uint64_t maxUnits =
        cfg.baseUnits << (cfg.sizeClasses > 0 ? cfg.sizeClasses - 1
                                              : 0);

    struct SubmitterStats
    {
        std::vector<double> latenciesUs;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t shed = 0;
        std::uint64_t profiledUnits = 0;
        std::uint64_t totalUnits = 0;
        std::uint64_t checksum = 0;
    };
    std::vector<SubmitterStats> stats(cfg.submitters);

    const auto wallStart = clock::now();
    std::vector<std::thread> threads;
    threads.reserve(cfg.submitters);
    for (unsigned t = 0; t < cfg.submitters; ++t) {
        threads.emplace_back([&, t] {
            SubmitterStats &st = stats[t];
            st.latenciesUs.reserve(cfg.jobsPerSubmitter);
            support::Rng rng(cfg.seed + 0x9e3779b9ull * (t + 1));
            const std::uint64_t burst =
                std::max<std::uint64_t>(1, cfg.burst);
            // One reusable output slot per in-flight job; the specs
            // and handles are reused every iteration, so the steady
            // state of this loop is the service's allocation-free
            // submit path.
            std::vector<kdp::Buffer<std::int32_t>> outs;
            outs.reserve(burst);
            for (std::uint64_t b = 0; b < burst; ++b)
                outs.emplace_back(maxUnits, kdp::MemSpace::Global,
                                  "loadgen.out");
            std::vector<JobSpec> specs(burst);
            std::vector<JobHandle> handles(burst);
            std::vector<std::uint64_t> burstUnits(burst, 0);
            runtime::LaunchOptions opt;
            opt.profileRepeats = cfg.profileRepeats;
            const unsigned classes = std::max(1u, cfg.sizeClasses);
            for (std::uint64_t j = 0; j < cfg.jobsPerSubmitter;
                 j += burst) {
                const std::uint64_t nb =
                    std::min(burst, cfg.jobsPerSubmitter - j);
                for (std::uint64_t b = 0; b < nb; ++b) {
                    const std::uint64_t idx = j + b;
                    std::string sig;
                    std::uint64_t units;
                    if (cfg.sweep) {
                        // Lockstep phase schedule: every submitter's
                        // job idx hits the same (signature, size).
                        sig = sigs[idx % sigs.size()];
                        units = cfg.baseUnits
                                << ((idx / sigs.size()) % classes);
                    } else {
                        sig = sigs[rng.nextBelow(sigs.size())];
                        units = cfg.baseUnits
                                << rng.nextBelow(classes);
                    }
                    JobSpec &spec = specs[b];
                    spec.signature(std::move(sig))
                        .units(units)
                        .options(opt);
                    spec.mutableArgs().clear();
                    spec.mutableArgs().add(outs[b]).add(
                        static_cast<std::int64_t>(units));
                    burstUnits[b] = units;
                }
                const auto t0 = clock::now();
                svc.submitMany(
                    std::span<const JobSpec>(specs.data(), nb),
                    std::span<JobHandle>(handles.data(), nb));
                for (std::uint64_t b = 0; b < nb; ++b) {
                    const JobResult &r = handles[b].result();
                    const auto t1 = clock::now();
                    st.latenciesUs.push_back(
                        std::chrono::duration<double, std::micro>(
                            t1 - t0)
                            .count());
                    const std::uint64_t units = burstUnits[b];
                    st.totalUnits += units;
                    st.profiledUnits += r.report.profiledUnits;
                    if (r.ok()) {
                        st.completed++;
                        // XOR-combine per-job digests: order-
                        // independent across submitter/device
                        // interleavings, so the run checksum only
                        // depends on what each job computed -- not
                        // on scheduling.
                        st.checksum ^= outputHash(outs[b], units);
                    }
                    else if (r.status.code()
                             == support::StatusCode::ResourceExhausted)
                        st.shed++;
                    else
                        st.failed++;
                    // Drop the handle so the pool can recycle the
                    // job state.
                    handles[b] = JobHandle();
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    svc.drain();
    const double wallSeconds =
        std::chrono::duration<double>(clock::now() - wallStart)
            .count();
    if (cfg.onStop)
        cfg.onStop(svc);
    svc.stop();
    if (!predictor) {
        // An external store outlives this call; the observer
        // captures locals and must not.
        store.setProfileObserver(nullptr);
    }

    LoadGenReport rep;
    rep.profiledKeys = std::move(profiledKeys);
    rep.config = cfg;
    rep.wallSeconds = wallSeconds;
    std::vector<double> latencies;
    for (auto &st : stats) {
        rep.jobsCompleted += st.completed;
        rep.jobsFailed += st.failed;
        rep.jobsShed += st.shed;
        rep.profiledUnits += st.profiledUnits;
        rep.totalUnits += st.totalUnits;
        rep.outputChecksum ^= st.checksum;
        latencies.insert(latencies.end(), st.latenciesUs.begin(),
                         st.latenciesUs.end());
    }
    rep.jobsSubmitted =
        static_cast<std::uint64_t>(cfg.submitters)
        * cfg.jobsPerSubmitter;
    std::sort(latencies.begin(), latencies.end());
    rep.p50LatencyUs = percentile(latencies, 0.50);
    rep.p99LatencyUs = percentile(latencies, 0.99);
    rep.jobsPerSec =
        wallSeconds > 0.0
            ? static_cast<double>(rep.jobsCompleted) / wallSeconds
            : 0.0;
    rep.profiledUnitRatio =
        rep.totalUnits > 0
            ? static_cast<double>(rep.profiledUnits)
                  / static_cast<double>(rep.totalUnits)
            : 0.0;

    const auto &m = svc.metrics();
    rep.coalesceLeaders = m.counterValue("coalesce.leader");
    rep.coalesceFollowers = m.counterValue("coalesce.follower");
    rep.coalesceHits = m.counterValue("coalesce.hit");
    rep.storeHits = m.counterValue("store.hit");
    rep.storeMisses = m.counterValue("store.miss");
    rep.storeHitRate =
        rep.jobsSubmitted > 0
            ? static_cast<double>(rep.storeHits)
                  / static_cast<double>(rep.jobsSubmitted)
            : 0.0;
    rep.batchLaunches = m.counterValue("batch.launches");
    rep.batchJobs = m.counterValue("batch.jobs");
    rep.batchDemoted = m.counterValue("batch.demoted");
    rep.avgBatchSize =
        rep.batchLaunches > 0
            ? static_cast<double>(rep.batchJobs)
                  / static_cast<double>(rep.batchLaunches)
            : 0.0;
    rep.predictHits = m.counterValue("predict.hit");
    rep.predictMisses = m.counterValue("predict.miss");
    rep.predictDemotions = m.counterValue("predict.demoted");
    rep.predictTrained = m.counterValue("predict.train");
    rep.fedWarmHits = m.counterValue("fed.warm_hit");
    rep.fedLeases = m.counterValue("fed.lease_granted");
    rep.fedFallbacks = m.counterValue("fed.fallback");
    rep.auditSamples = m.counterValue("audit.samples");
    rep.auditDemotions = m.counterValue("audit.demotions");
    rep.auditProbeFailures = m.counterValue("audit.probe_failed");
    rep.auditMeanRegret =
        svc.auditor() ? svc.auditor()->meanRegret() : 0.0;
    const std::uint64_t bids = rep.coalesceHits + rep.coalesceLeaders;
    rep.coalesceHitRate =
        bids > 0 ? static_cast<double>(rep.coalesceHits)
                       / static_cast<double>(bids)
                 : 0.0;
    // The replicator outlives this run (it keeps serving deltas to
    // peers through drain and quiescence) but the service's metrics
    // registry dies with this scope: unbind before it dangles.
    if (cfg.federation)
        cfg.federation->bindMetrics(nullptr);
    return rep;
}

} // namespace

LoadGenReport
runLoadGen(const LoadGenConfig &cfg)
{
    if (!cfg.predict)
        return runImpl(cfg, nullptr);

    predict::PredictorConfig pcfg;
    pcfg.threshold = cfg.predictThreshold;
    predict::SelectionPredictor predictor(pcfg);
    if (cfg.pretrainLaps > 0) {
        // Warm-up laps against a throwaway service/store: one sweep
        // over every (signature, size class) per lap.  Only the
        // predictor's learned state carries into the measured run --
        // the measured store still starts cold, so every skipped
        // profiling pass there is the predictor's doing.
        LoadGenConfig warm = cfg;
        warm.sweep = true;
        warm.jobsPerSubmitter =
            static_cast<std::uint64_t>(std::max(1u, cfg.signatures))
            * std::max(1u, cfg.sizeClasses) * cfg.pretrainLaps;
        warm.pretrainLaps = 0;
        // Warm-up services are throwaway: no admin plane, no audit.
        warm.onStart = nullptr;
        warm.onStop = nullptr;
        warm.auditRate = 0.0;
        (void)runImpl(warm, &predictor);
    }
    return runImpl(cfg, &predictor);
}

} // namespace serve
} // namespace dysel
