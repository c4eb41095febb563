/**
 * @file
 * dyseld: the DySel dispatch service driven end-to-end.
 *
 * Builds a two-device service (simulated CPU + GPU), warm-started
 * from a persistent selection store, and pushes a mix of the standard
 * workloads (sgemm, spmv, stencil) through it in two passes:
 *
 *   pass 1: the base mix -- cold keys micro-profile, and their
 *           selections land in the store;
 *   pass 2: the same mix again (every previously-seen key must run
 *           with profiledUnits == 0) plus an sgemm whose problem size
 *           falls in a different workload-size bucket, which must
 *           micro-profile despite the signature being warm.
 *
 * With --fault-rate, a seeded fault injector per device drops or
 * slows launches; the service's retry / breaker / quarantine
 * machinery keeps the jobs completing, and the recovery counters and
 * the injectors' event logs are printed alongside the usual tables.
 * Run it twice with the same --store file to see a fully warm pass 1.
 *
 * With --guard, each runtime validates variants during
 * micro-profiling (output cross-check, canary redzones, NaN screen,
 * watchdog).  --variant-fault-rate P (implies --guard) makes each
 * variant name miscompiled with probability P -- persistently, the
 * same way a bad code path misbehaves on every run; the guard
 * excludes the culprits mid-selection and blacklists them into the
 * store, and the guard.* counters are printed against the injector
 * variant-fault logs.  Persistence failures (unreadable or corrupt
 * store file, failed save) exit nonzero; a missing store file is a
 * normal cold start.
 *
 * With --predict, a selection predictor learns from every profiling
 * pass and serves confident store misses without profiling; its model
 * is persisted in the store file's "predictor" extension, so a second
 * --predict run with the same --store warm-starts the model too.
 *
 * With --admin PORT, the live introspection plane (DESIGN §11) is
 * served over loopback HTTP for the lifetime of the run: /metrics,
 * /healthz, /readyz, /debug/selections, /debug/flight?worker=N,
 * /debug/trace, /debug/audit, /debug/predictor.  --admin-hold SEC
 * keeps the service (and the plane) up after the work completes, for
 * at most SEC seconds or until GET /quitquitquit -- the hook CI uses
 * to scrape a live service deterministically.  --audit-rate R samples
 * that fraction of warm hits through the selection-quality auditor.
 *
 * Fleet federation (DESIGN §13): `--loadgen --replica-id R
 * --fleet-size N --peer HOST:PORT...` joins this loadgen run to a
 * replicated fleet -- the selection store gossips deltas with every
 * peer over the admin HTTP front (which federation therefore
 * requires), cold keys are profiled only by their rendezvous-hash
 * owner, and after the storm the run blocks until the fleet's stores
 * converge byte-identically.  `dyseld --fleet N` is the one-command
 * driver: it forks N federated loadgen replicas of itself on
 * consecutive admin ports, waits, cross-checks convergence and the
 * fleet-wide exactly-once profiling invariant, and writes the
 * aggregated BENCH_fleet_federation.json.
 */
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "dysel/fed/replicator.hh"
#include "dysel/predict/predictor.hh"
#include "serve/admin/admin_plane.hh"
#include "serve/dispatch_service.hh"
#include "serve/loadgen.hh"
#include "support/net/http.hh"
#include "sim/fault.hh"
#include "support/table.hh"
#include "workloads/devices.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/stencil.hh"

using namespace dysel;

namespace {

struct Options
{
    std::string storePath = "dyseld.store.json";
    bool load = true;
    bool save = true;
    std::string metricsFormat = "text"; ///< text | json | prom
    std::string tracePath;              ///< Chrome trace JSON out
    bool guard = false;
    double faultRate = 0.0;
    double variantFaultRate = 0.0;
    std::uint64_t faultSeed = 0xfa01d;

    /**
     * --predict: attach a selection predictor (learned selection).
     * In demo mode its model is persisted in the store file's
     * "predictor" extension; in loadgen mode it rides the run.
     */
    bool predict = false;
    double predictThreshold = 0.65;

    /**
     * --max-batch / --batch-window: batch fusion knobs (DESIGN §10),
     * applied to the demo service and to loadgen runs alike.
     */
    std::size_t maxBatch = 1;
    sim::TimeNs batchWindowNs = 0;

    /** --loadgen: closed-loop load generator instead of the demo. */
    bool loadgen = false;
    serve::LoadGenConfig lg;
    std::string loadgenJson; ///< report file (--loadgen-json)

    /** --admin PORT: serve the introspection plane (-1 = off). */
    int adminPort = -1;
    /** --admin-hold SEC: keep serving after the work, bounded. */
    unsigned adminHoldSec = 0;
    /** --audit-rate R: selection-quality audit sampling rate. */
    double auditRate = 0.0;

    /** Federation (DESIGN §13): this replica's id and fleet shape. */
    std::uint32_t replicaId = 0;
    std::uint32_t fleetSize = 1;
    /** --peer HOST:PORT, repeatable: the other replicas' admin fronts. */
    std::vector<std::string> peers;
    int syncIntervalMs = 25;
    /** Post-storm convergence wait before declaring divergence. */
    int quiesceTimeoutMs = 20000;

    /** --fleet N: fork N federated loadgen replicas and aggregate. */
    unsigned fleetProcs = 0;
    std::string fleetJson = "BENCH_fleet_federation.json";
};

/**
 * The admin plane's HTTP front for one run: owns the plane and the
 * listener, maps HttpRequest -> AdminPlane, and implements the
 * /quitquitquit release used by --admin-hold.  The service passed to
 * attach() must outlive detach().
 */
class AdminRunner
{
  public:
    support::Status attach(std::uint16_t port,
                           serve::DispatchService &svc,
                           const predict::SelectionPredictor *predictor,
                           fed::Replicator *fedp = nullptr)
    {
        plane_ = std::make_unique<serve::admin::AdminPlane>(
            svc, predictor, fedp);
        return server_.start(
            port, [this](const support::net::HttpRequest &req) {
                support::net::HttpResponse out;
                if (req.target == "/quitquitquit") {
                    quit_.store(true, std::memory_order_release);
                    out.body = "bye\n";
                    return out;
                }
                const serve::admin::AdminResponse resp =
                    plane_->handleTarget(req.target);
                out.status = resp.status;
                out.contentType = resp.contentType;
                out.body = resp.body;
                return out;
            });
    }

    std::uint16_t port() const { return server_.port(); }

    /** Block until /quitquitquit or @p seconds elapse. */
    void hold(unsigned seconds)
    {
        const auto deadline = std::chrono::steady_clock::now()
                              + std::chrono::seconds(seconds);
        while (!quit_.load(std::memory_order_acquire)
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }

    /** Stop the listener; safe before the service stops. */
    void detach()
    {
        server_.stop();
        plane_.reset();
    }

  private:
    std::unique_ptr<serve::admin::AdminPlane> plane_;
    support::net::HttpServer server_;
    std::atomic<bool> quit_{false};
};

/** Run the closed-loop load generator (`dyseld --loadgen`). */
int
runLoadGenMode(const Options &opt)
{
    serve::LoadGenConfig cfg = opt.lg;
    cfg.guard = opt.guard;
    cfg.faultRate = opt.faultRate;
    cfg.predict = opt.predict;
    cfg.predictThreshold = opt.predictThreshold;
    cfg.maxBatchJobs = opt.maxBatch;
    cfg.batchWindowNs = opt.batchWindowNs;
    cfg.auditRate = opt.auditRate;

    // Federation: the store is shared with a Replicator that gossips
    // it over the admin HTTP front, so federation requires --admin.
    const bool federated = !opt.peers.empty() || opt.fleetSize > 1;
    store::SelectionStore fedStore;
    std::unique_ptr<fed::Replicator> replicator;
    bool fedConverged = true;
    if (federated) {
        if (opt.adminPort < 0) {
            std::cerr << "dyseld: federation requires --admin PORT "
                         "(peers pull /fed/delta from it)\n";
            return 1;
        }
        if (opt.predict) {
            std::cerr << "dyseld: --predict and federation are "
                         "mutually exclusive in loadgen mode\n";
            return 1;
        }
        if (opt.load) {
            const support::Status loaded =
                fedStore.loadFile(opt.storePath);
            if (!loaded.ok()
                && loaded.code() != support::StatusCode::NotFound) {
                std::cerr << "dyseld: " << loaded.toString() << '\n';
                return 1;
            }
        }
        fed::ReplicatorConfig rcfg;
        rcfg.replica = opt.replicaId;
        rcfg.fleetSize = opt.fleetSize;
        rcfg.peers = opt.peers;
        rcfg.syncIntervalMs = opt.syncIntervalMs;
        replicator =
            std::make_unique<fed::Replicator>(fedStore, rcfg);
        cfg.externalStore = &fedStore;
        cfg.federation = replicator.get();
    }

    AdminRunner admin;
    if (opt.adminPort >= 0) {
        cfg.onStart = [&](serve::DispatchService &svc) {
            const support::Status st = admin.attach(
                static_cast<std::uint16_t>(opt.adminPort), svc,
                nullptr, replicator.get());
            if (st.ok())
                std::cout << "admin plane on http://127.0.0.1:"
                          << admin.port() << "/\n"
                          << std::flush;
            else
                std::cerr << "dyseld: admin plane failed: "
                          << st.toString() << '\n';
            if (replicator) {
                replicator->start();
                // Hold the storm until the fleet is connected: a
                // cold miss against an unreachable owner profiles
                // locally, which is safe but duplicates the fleet's
                // one profiling pass.
                if (!replicator->awaitPeers(opt.quiesceTimeoutMs))
                    std::cerr << "dyseld: warning: not all peers "
                                 "reachable; cold misses may "
                                 "profile locally\n";
            }
        };
        cfg.onStop = [&](serve::DispatchService &) {
            if (replicator) {
                // Drain-time anti-entropy: advertise drained, then
                // keep syncing until every replica reports our exact
                // store digest (or the timeout says divergence).
                replicator->markDrained();
                fedConverged = replicator->awaitQuiescence(
                    opt.quiesceTimeoutMs);
                std::cout << "federation: "
                          << (fedConverged ? "converged"
                                           : "NOT CONVERGED")
                          << ", " << fedStore.size()
                          << " records fleet-wide\n"
                          << std::flush;
            }
            if (opt.adminHoldSec > 0) {
                std::cout << "admin hold: up to " << opt.adminHoldSec
                          << "s (GET /quitquitquit to release)\n"
                          << std::flush;
                admin.hold(opt.adminHoldSec);
            }
            if (replicator)
                replicator->stop();
            admin.detach();
        };
    }
    std::cout << "loadgen: " << cfg.submitters << " submitters x "
              << cfg.jobsPerSubmitter << " jobs -> " << cfg.devices
              << " devices, " << cfg.signatures << " signatures x "
              << cfg.sizeClasses << " size classes"
              << (cfg.burst > 1
                      ? ", burst " + std::to_string(cfg.burst)
                      : std::string())
              << (cfg.maxBatchJobs > 1
                      ? ", batch <= " + std::to_string(cfg.maxBatchJobs)
                            + " (window "
                            + std::to_string(cfg.batchWindowNs) + " ns)"
                      : std::string())
              << (cfg.sweep ? ", lockstep sweep" : "")
              << (cfg.coalesce ? "" : ", coalescing off")
              << (cfg.maxQueueDepth > 0
                      ? (cfg.admission == serve::AdmissionPolicy::Shed
                             ? ", shed at depth "
                             : ", backpressure at depth ")
                            + std::to_string(cfg.maxQueueDepth)
                      : std::string())
              << (cfg.guard ? ", guard on" : "")
              << (cfg.predict
                      ? ", predict on (threshold "
                            + std::to_string(cfg.predictThreshold)
                            + (cfg.pretrainLaps > 0
                                   ? ", " + std::to_string(
                                         cfg.pretrainLaps)
                                         + " pretrain laps"
                                   : std::string())
                            + ")"
                      : std::string())
              << (cfg.faultRate > 0.0
                      ? ", fault rate " + std::to_string(cfg.faultRate)
                      : std::string())
              << (cfg.auditRate > 0.0
                      ? ", audit rate " + std::to_string(cfg.auditRate)
                      : std::string())
              << '\n';

    const serve::LoadGenReport rep = serve::runLoadGen(cfg);

    support::Table table({"metric", "value"});
    table.row().cell("jobs submitted").cell(rep.jobsSubmitted);
    table.row().cell("jobs completed").cell(rep.jobsCompleted);
    table.row().cell("jobs failed").cell(rep.jobsFailed);
    table.row().cell("jobs shed").cell(rep.jobsShed);
    table.row().cell("wall seconds").cell(rep.wallSeconds, 3);
    table.row().cell("jobs/s").cell(rep.jobsPerSec, 0);
    table.row().cell("p50 latency (us)").cell(rep.p50LatencyUs, 1);
    table.row().cell("p99 latency (us)").cell(rep.p99LatencyUs, 1);
    table.row().cell("profiled units").cell(rep.profiledUnits);
    table.row().cell("profiled ratio").cell(rep.profiledUnitRatio, 4);
    table.row().cell("store hits").cell(rep.storeHits);
    table.row().cell("coalesce leaders").cell(rep.coalesceLeaders);
    table.row().cell("coalesce followers").cell(rep.coalesceFollowers);
    table.row().cell("coalesce hits").cell(rep.coalesceHits);
    table.row().cell("coalesce hit rate").cell(rep.coalesceHitRate, 3);
    if (cfg.maxBatchJobs > 1) {
        table.row().cell("batch launches").cell(rep.batchLaunches);
        table.row().cell("batched jobs").cell(rep.batchJobs);
        table.row().cell("batch demotions").cell(rep.batchDemoted);
        table.row().cell("avg batch size").cell(rep.avgBatchSize, 2);
    }
    if (opt.predict) {
        table.row().cell("predict hits").cell(rep.predictHits);
        table.row().cell("predict misses").cell(rep.predictMisses);
        table.row().cell("predict demotions").cell(rep.predictDemotions);
        table.row().cell("predict trained").cell(rep.predictTrained);
    }
    if (cfg.auditRate > 0.0) {
        table.row().cell("audit samples").cell(rep.auditSamples);
        table.row().cell("audit demotions").cell(rep.auditDemotions);
        table.row()
            .cell("audit probe failures")
            .cell(rep.auditProbeFailures);
        table.row().cell("audit mean regret").cell(rep.auditMeanRegret, 4);
    }
    if (federated) {
        table.row().cell("fed warm hits").cell(rep.fedWarmHits);
        table.row().cell("fed leases").cell(rep.fedLeases);
        table.row().cell("fed fallbacks").cell(rep.fedFallbacks);
        table.row()
            .cell("fed profiled keys")
            .cell(static_cast<std::uint64_t>(rep.profiledKeys.size()));
    }
    table.print(std::cout);

    if (!opt.loadgenJson.empty()) {
        std::ofstream out(opt.loadgenJson);
        if (!out) {
            std::cerr << "dyseld: cannot write loadgen report to "
                      << opt.loadgenJson << '\n';
            return 1;
        }
        out << rep.toJson().dump(2) << '\n';
        if (!out.flush()) {
            std::cerr << "dyseld: loadgen report write failed\n";
            return 1;
        }
        std::cout << "wrote " << opt.loadgenJson << '\n';
    }

    // Every submitted job must be terminal, one way or the other, and
    // every admitted job read the store once: a hit or a miss.
    if (rep.jobsSubmitted
        != rep.jobsCompleted + rep.jobsFailed + rep.jobsShed) {
        std::cerr << "dyseld: loadgen job accounting does not "
                     "reconcile\n";
        return 1;
    }
    if (rep.storeHits + rep.storeMisses
        != rep.jobsSubmitted - rep.jobsShed) {
        std::cerr << "dyseld: loadgen store hits (" << rep.storeHits
                  << ") + misses (" << rep.storeMisses
                  << ") do not reconcile with the "
                  << rep.jobsSubmitted - rep.jobsShed
                  << " admitted jobs\n";
        return 1;
    }
    if (federated && opt.save) {
        const support::Status saved = fedStore.saveFile(opt.storePath);
        if (!saved.ok()) {
            std::cerr << "dyseld: " << saved.toString() << '\n';
            return 1;
        }
        std::cout << "saved " << fedStore.size() << " records to "
                  << opt.storePath << '\n';
    }
    if (federated && !fedConverged) {
        std::cerr << "dyseld: fleet stores did not converge within "
                  << opt.quiesceTimeoutMs << " ms\n";
        return 1;
    }
    return 0;
}

/**
 * `dyseld --fleet N`: fork N federated loadgen replicas of this
 * binary on consecutive admin ports, wait for all of them, then
 * verify fleet-wide convergence (byte-identical saved stores) and
 * the exactly-once profiling invariant from the per-replica reports,
 * and write the aggregated BENCH_fleet_federation.json.
 */
int
runFleetMode(const Options &opt, int argc, char **argv)
{
    const unsigned n = opt.fleetProcs;
    const int basePort = opt.adminPort >= 0 ? opt.adminPort : 18490;
    auto storePath = [&](unsigned r) {
        return opt.storePath + ".replica" + std::to_string(r);
    };
    auto reportPath = [&](unsigned r) {
        return opt.storePath + ".report" + std::to_string(r) + ".json";
    };

    // Pass the user's loadgen shape through; strip the driver flag
    // and everything the driver assigns per replica.
    std::vector<std::string> base;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool takesValue =
            a == "--fleet" || a == "--store" || a == "--admin"
            || a == "--loadgen-json" || a == "--replica-id"
            || a == "--fleet-size" || a == "--peer"
            || a == "--fleet-json";
        if (takesValue) {
            if (i + 1 < argc)
                ++i;
            continue;
        }
        if (a == "--loadgen" || a == "--no-load" || a == "--no-save")
            continue;
        base.push_back(a);
    }

    std::vector<pid_t> pids;
    for (unsigned r = 0; r < n; ++r) {
        std::vector<std::string> args;
        args.push_back("dyseld");
        args.insert(args.end(), base.begin(), base.end());
        args.push_back("--loadgen");
        args.push_back("--no-load");
        args.push_back("--replica-id");
        args.push_back(std::to_string(r));
        args.push_back("--fleet-size");
        args.push_back(std::to_string(n));
        for (unsigned p = 0; p < n; ++p) {
            if (p == r)
                continue;
            args.push_back("--peer");
            args.push_back("127.0.0.1:"
                           + std::to_string(basePort + p));
        }
        args.push_back("--admin");
        args.push_back(std::to_string(basePort + r));
        args.push_back("--store");
        args.push_back(storePath(r));
        args.push_back("--loadgen-json");
        args.push_back(reportPath(r));

        const pid_t pid = fork();
        if (pid < 0) {
            std::cerr << "dyseld: fork failed\n";
            return 1;
        }
        if (pid == 0) {
            std::vector<char *> cargs;
            for (auto &a : args)
                cargs.push_back(a.data());
            cargs.push_back(nullptr);
            execv("/proc/self/exe", cargs.data());
            std::cerr << "dyseld: execv failed\n";
            _exit(127);
        }
        pids.push_back(pid);
    }

    bool childrenOk = true;
    for (unsigned r = 0; r < n; ++r) {
        int status = 0;
        waitpid(pids[r], &status, 0);
        const bool ok =
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!ok) {
            std::cerr << "dyseld: replica " << r
                      << " exited with status " << status << '\n';
            childrenOk = false;
        }
    }

    // Cross-check convergence from the saved stores: the serialized
    // form excludes local-only state (seqs, hit counters), so
    // converged replicas dump byte-identical documents.
    bool converged = childrenOk;
    std::vector<std::string> dumps;
    for (unsigned r = 0; r < n; ++r) {
        store::SelectionStore st;
        const support::Status loaded = st.loadFile(storePath(r));
        if (!loaded.ok()) {
            std::cerr << "dyseld: replica " << r << " store: "
                      << loaded.toString() << '\n';
            converged = false;
            dumps.push_back("");
            continue;
        }
        dumps.push_back(st.toJson().dump(0));
    }
    for (unsigned r = 1; r < dumps.size(); ++r)
        if (dumps[r] != dumps[0])
            converged = false;

    // Aggregate the per-replica reports: fleet hit rate plus the
    // exactly-once invariant (no key profiled by two replicas -- or
    // twice by one).
    std::uint64_t submitted = 0, completed = 0, storeHits = 0;
    std::uint64_t warmHits = 0, leases = 0, fallbacks = 0;
    std::set<std::string> seenKeys;
    std::uint64_t duplicateKeys = 0;
    support::Json perReplica = support::Json::array();
    for (unsigned r = 0; r < n; ++r) {
        std::ifstream in(reportPath(r));
        std::stringstream ss;
        ss << in.rdbuf();
        support::Json rep;
        try {
            rep = support::Json::parse(ss.str());
        } catch (const std::exception &e) {
            std::cerr << "dyseld: replica " << r << " report: "
                      << e.what() << '\n';
            converged = false;
            continue;
        }
        submitted += static_cast<std::uint64_t>(
            rep.at("jobs").at("submitted").asNumber());
        completed += static_cast<std::uint64_t>(
            rep.at("jobs").at("completed").asNumber());
        storeHits += static_cast<std::uint64_t>(
            rep.at("store_hits").asNumber());
        const support::Json &fed = rep.at("fed");
        warmHits += static_cast<std::uint64_t>(
            fed.at("warm_hits").asNumber());
        leases +=
            static_cast<std::uint64_t>(fed.at("leases").asNumber());
        fallbacks += static_cast<std::uint64_t>(
            fed.at("fallbacks").asNumber());
        for (const support::Json &k :
             fed.at("profiled_key_list").items()) {
            if (!seenKeys.insert(k.asString()).second)
                duplicateKeys++;
        }
        perReplica.push(std::move(rep));
    }
    const double fleetHitRate =
        submitted > 0
            ? static_cast<double>(storeHits)
                  / static_cast<double>(submitted)
            : 0.0;

    support::Json out = support::Json::object();
    out.set("bench", support::Json("fleet_federation"));
    out.set("replicas", support::Json(n));
    out.set("jobs_submitted",
            support::Json(static_cast<double>(submitted)));
    out.set("jobs_completed",
            support::Json(static_cast<double>(completed)));
    out.set("store_hits",
            support::Json(static_cast<double>(storeHits)));
    out.set("fleet_hit_rate", support::Json(fleetHitRate));
    out.set("fed_warm_hits",
            support::Json(static_cast<double>(warmHits)));
    out.set("fed_leases", support::Json(static_cast<double>(leases)));
    out.set("fed_fallbacks",
            support::Json(static_cast<double>(fallbacks)));
    out.set("profiled_keys",
            support::Json(static_cast<double>(seenKeys.size())));
    out.set("duplicate_profiled_keys",
            support::Json(static_cast<double>(duplicateKeys)));
    out.set("converged", support::Json(converged));
    out.set("per_replica", std::move(perReplica));

    std::ofstream outFile(opt.fleetJson);
    if (!outFile) {
        std::cerr << "dyseld: cannot write " << opt.fleetJson << '\n';
        return 1;
    }
    outFile << out.dump(2) << '\n';
    if (!outFile.flush()) {
        std::cerr << "dyseld: fleet report write failed\n";
        return 1;
    }

    std::cout << "fleet: " << n << " replicas, " << submitted
              << " jobs, hit rate " << fleetHitRate << ", "
              << seenKeys.size() << " keys profiled ("
              << duplicateKeys << " duplicates), "
              << (converged ? "converged" : "NOT CONVERGED")
              << "; wrote " << opt.fleetJson << '\n';
    return converged && duplicateKeys == 0 ? 0 : 1;
}

/** One submitted job's bookkeeping: the workload instance (owns the
 *  buffers the job's args point at) plus its completion handle. */
struct Entry
{
    std::string label;
    workloads::Workload w;
    serve::JobHandle handle;
    bool checked = false;
};

void
submitEntry(serve::DispatchService &svc, Entry &e)
{
    serve::JobSpec spec;
    spec.signature(e.w.signature).units(e.w.units).args(e.w.args);
    // Kernel variants capture their problem geometry, so a runtime
    // that already has this signature registered for a different
    // instance must be re-registered.  (A per-job installer also
    // keeps the demo jobs out of batch fusion -- each instance owns
    // distinct buffers.)
    spec.ensureRegistered([&e](runtime::Runtime &rt) {
        rt.removeKernel(e.w.signature);
        e.w.registerWith(rt);
    });
    svc.submitMany(std::span<const serve::JobSpec>(&spec, 1),
                   std::span<serve::JobHandle>(&e.handle, 1));
}

void
printPass(const char *title, const std::vector<std::unique_ptr<Entry>> &entries)
{
    std::cout << "\n--- " << title << " ---\n";
    support::Table table({"workload", "signature", "device", "bucket",
                          "units", "warm", "attempts", "profiledUnits",
                          "selected", "ok"});
    for (const auto &e : entries) {
        const serve::JobResult &r = e->handle.result();
        table.row()
            .cell(e->label)
            .cell(e->w.signature)
            .cell(r.ok() ? r.deviceName : "-")
            .cell(std::uint64_t{store::bucketOf(e->w.units)})
            .cell(std::uint64_t{e->w.units})
            .cell(r.warmStart ? "yes" : "no")
            .cell(std::uint64_t{r.attempts})
            .cell(std::uint64_t{r.report.profiledUnits})
            .cell(r.ok() ? r.report.selectedName : r.status.toString())
            .cell(e->checked ? "yes" : "NO");
    }
    table.print(std::cout);
}

/** The base workload mix; @p grown adds the bucket-changing sgemm. */
std::vector<std::unique_ptr<Entry>>
makeMix(bool grown)
{
    std::vector<std::unique_ptr<Entry>> mix;
    auto add = [&](const char *label, workloads::Workload w) {
        auto e = std::make_unique<Entry>();
        e->label = label;
        e->w = std::move(w);
        mix.push_back(std::move(e));
    };
    add("sgemm-mixed-256", workloads::makeSgemmMixed(256, 256, 256));
    add("spmv-csr-random",
        workloads::makeSpmvCsrCpuInputDep(workloads::SpmvInput::Random));
    add("spmv-csr-diagonal",
        workloads::makeSpmvCsrCpuInputDep(workloads::SpmvInput::Diagonal));
    add("stencil-mixed", workloads::makeStencilMixed());
    if (grown) {
        // Same signature as sgemm-mixed-256 but ~2300 units instead
        // of 1024: a different size bucket, so the store must miss
        // and the service must re-profile.
        add("sgemm-mixed-384", workloads::makeSgemmMixed(384, 384, 384));
    }
    return mix;
}

void
runPass(serve::DispatchService &svc,
        std::vector<std::unique_ptr<Entry>> &mix)
{
    for (auto &e : mix)
        submitEntry(svc, *e);
    svc.drain();
    for (auto &e : mix)
        e->checked = e->handle.result().ok() && e->w.check();
}

void
printInjector(const char *name, const sim::FaultInjector &inj)
{
    std::cout << name << ": " << inj.total() << " faults ("
              << inj.count(sim::FaultKind::LaunchFail) << " launch-fail, "
              << inj.count(sim::FaultKind::Hang) << " hang, "
              << inj.count(sim::FaultKind::LatencySpike) << " spike)";
    if (inj.variantTotal() > 0) {
        std::cout << ", " << inj.variantTotal() << " variant faults ("
                  << inj.variantCount(sim::VariantFaultKind::CorruptOutput)
                  << " corrupt, "
                  << inj.variantCount(sim::VariantFaultKind::OobWrite)
                  << " oob, "
                  << inj.variantCount(sim::VariantFaultKind::NanOutput)
                  << " nan, "
                  << inj.variantCount(sim::VariantFaultKind::KernelHang)
                  << " hang)";
    }
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--store" && i + 1 < argc) {
            opt.storePath = argv[++i];
        } else if (arg == "--no-load") {
            opt.load = false;
        } else if (arg == "--no-save") {
            opt.save = false;
        } else if (arg == "--metrics" && i + 1 < argc) {
            opt.metricsFormat = argv[++i];
            if (opt.metricsFormat != "text"
                && opt.metricsFormat != "json"
                && opt.metricsFormat != "prom") {
                std::cerr << "dyseld: unknown metrics format '"
                          << opt.metricsFormat << "'\n";
                return 1;
            }
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.tracePath = argv[++i];
        } else if (arg == "--fault-rate" && i + 1 < argc) {
            opt.faultRate = std::atof(argv[++i]);
        } else if (arg == "--fault-seed" && i + 1 < argc) {
            opt.faultSeed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--guard") {
            opt.guard = true;
        } else if (arg == "--variant-fault-rate" && i + 1 < argc) {
            opt.variantFaultRate = std::atof(argv[++i]);
            opt.guard = true; // pointless without the guard watching
        } else if (arg == "--predict") {
            opt.predict = true;
        } else if (arg == "--predict-threshold" && i + 1 < argc) {
            opt.predictThreshold = std::atof(argv[++i]);
        } else if (arg == "--max-batch" && i + 1 < argc) {
            opt.maxBatch = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--batch-window" && i + 1 < argc) {
            opt.batchWindowNs = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--burst" && i + 1 < argc) {
            opt.lg.burst = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--predict-pretrain" && i + 1 < argc) {
            opt.lg.pretrainLaps =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--loadgen") {
            opt.loadgen = true;
        } else if (arg == "--submitters" && i + 1 < argc) {
            opt.lg.submitters =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--devices" && i + 1 < argc) {
            opt.lg.devices =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--signatures" && i + 1 < argc) {
            opt.lg.signatures =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--size-classes" && i + 1 < argc) {
            opt.lg.sizeClasses =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--jobs" && i + 1 < argc) {
            opt.lg.jobsPerSubmitter = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--base-units" && i + 1 < argc) {
            opt.lg.baseUnits = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--variants" && i + 1 < argc) {
            opt.lg.variants =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--profile-repeats" && i + 1 < argc) {
            opt.lg.profileRepeats =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--sweep") {
            opt.lg.sweep = true;
        } else if (arg == "--no-coalesce") {
            opt.lg.coalesce = false;
        } else if (arg == "--no-affinity") {
            opt.lg.affinity = false;
        } else if (arg == "--queue-depth" && i + 1 < argc) {
            opt.lg.maxQueueDepth = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--admission" && i + 1 < argc) {
            const std::string mode = argv[++i];
            if (mode == "block") {
                opt.lg.admission = serve::AdmissionPolicy::Block;
            } else if (mode == "shed") {
                opt.lg.admission = serve::AdmissionPolicy::Shed;
            } else {
                std::cerr << "dyseld: unknown admission mode '" << mode
                          << "' (block|shed)\n";
                return 1;
            }
        } else if (arg == "--seed" && i + 1 < argc) {
            opt.lg.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--loadgen-json" && i + 1 < argc) {
            opt.loadgenJson = argv[++i];
        } else if (arg == "--admin" && i + 1 < argc) {
            opt.adminPort = std::atoi(argv[++i]);
            if (opt.adminPort < 0 || opt.adminPort > 65535) {
                std::cerr << "dyseld: bad admin port\n";
                return 1;
            }
        } else if (arg == "--admin-hold" && i + 1 < argc) {
            opt.adminHoldSec =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--audit-rate" && i + 1 < argc) {
            opt.auditRate = std::atof(argv[++i]);
        } else if (arg == "--replica-id" && i + 1 < argc) {
            opt.replicaId =
                static_cast<std::uint32_t>(std::atoi(argv[++i]));
        } else if (arg == "--fleet-size" && i + 1 < argc) {
            opt.fleetSize =
                static_cast<std::uint32_t>(std::atoi(argv[++i]));
        } else if (arg == "--peer" && i + 1 < argc) {
            opt.peers.push_back(argv[++i]);
        } else if (arg == "--sync-interval-ms" && i + 1 < argc) {
            opt.syncIntervalMs = std::atoi(argv[++i]);
        } else if (arg == "--quiesce-timeout-ms" && i + 1 < argc) {
            opt.quiesceTimeoutMs = std::atoi(argv[++i]);
        } else if (arg == "--fleet" && i + 1 < argc) {
            opt.fleetProcs =
                static_cast<unsigned>(std::atoi(argv[++i]));
            if (opt.fleetProcs < 2) {
                std::cerr << "dyseld: --fleet needs N >= 2\n";
                return 1;
            }
        } else if (arg == "--fleet-json" && i + 1 < argc) {
            opt.fleetJson = argv[++i];
        } else {
            std::cerr << "usage: dyseld [--store FILE] [--no-load] "
                         "[--no-save] [--metrics text|json|prom] "
                         "[--trace FILE] [--fault-rate P] "
                         "[--fault-seed S] [--guard] "
                         "[--variant-fault-rate P] [--predict] "
                         "[--predict-threshold X] [--max-batch N] "
                         "[--batch-window NS]\n"
                         "       dyseld --loadgen [--submitters N] "
                         "[--devices N] [--signatures N] "
                         "[--size-classes N] [--jobs N] "
                         "[--base-units N] [--variants N] "
                         "[--profile-repeats N] [--sweep] "
                         "[--no-coalesce] [--no-affinity] "
                         "[--queue-depth N] [--admission block|shed] "
                         "[--burst N] [--max-batch N] "
                         "[--batch-window NS] "
                         "[--fault-rate P] [--guard] [--predict] "
                         "[--predict-threshold X] "
                         "[--predict-pretrain N] [--seed S] "
                         "[--loadgen-json FILE]\n"
                         "       federation (with --loadgen --admin): "
                         "[--replica-id R] [--fleet-size N] "
                         "[--peer HOST:PORT]... "
                         "[--sync-interval-ms MS] "
                         "[--quiesce-timeout-ms MS]\n"
                         "       dyseld --fleet N [loadgen flags] "
                         "[--fleet-json FILE]  (multi-process fleet "
                         "storm)\n"
                         "       common: [--admin PORT] "
                         "[--admin-hold SEC] [--audit-rate R]\n";
            return arg == "--help" ? 0 : 1;
        }
    }

    // Reject nonsense service configs at the flag boundary -- the
    // same typed check the DispatchService ctor enforces, but with a
    // user-facing message instead of an exception.
    {
        serve::ServiceConfig check;
        check.maxQueueDepth = opt.loadgen ? opt.lg.maxQueueDepth : 0;
        check.admission = opt.lg.admission;
        check.batch.maxJobs = opt.maxBatch;
        check.batch.windowNs = opt.batchWindowNs;
        check.audit.sampleRate = opt.auditRate;
        if (const support::Status st = check.validate(); !st.ok()) {
            std::cerr << "dyseld: " << st.toString() << '\n';
            return 1;
        }
    }

    if (opt.fleetProcs >= 2)
        return runFleetMode(opt, argc, argv);

    if (opt.loadgen)
        return runLoadGenMode(opt);

    store::SelectionStore store;
    if (opt.load) {
        const support::Status loaded = store.loadFile(opt.storePath);
        if (loaded.ok()) {
            std::cout << "loaded " << store.size()
                      << " selection records from " << opt.storePath
                      << " (warm start)\n";
        } else if (loaded.code() == support::StatusCode::NotFound) {
            std::cout << "starting with an empty selection store\n";
        } else {
            // Corrupt persistence is not silently ignored: serving
            // stale-but-valid selections is fine, serving from a
            // half-read store is not.
            std::cerr << "dyseld: " << loaded.toString() << '\n';
            return 1;
        }
    } else {
        std::cout << "starting with an empty selection store\n";
    }

    // Per-device injectors: 70% of faults drop the launch, 20% slow
    // it down, 10% hang the device for a while.  Variant faults are
    // drawn once per variant name and persist (a miscompiled variant
    // misbehaves on every execution).
    sim::FaultConfig fcfg;
    fcfg.launchFailProb = opt.faultRate * 0.7;
    fcfg.latencySpikeProb = opt.faultRate * 0.2;
    fcfg.hangProb = opt.faultRate * 0.1;
    fcfg.variantFaultProb = opt.variantFaultRate;
    fcfg.seed = opt.faultSeed;
    sim::FaultInjector cpuFaults(fcfg);
    fcfg.seed = opt.faultSeed + 1;
    sim::FaultInjector gpuFaults(fcfg);

    // The predictor outlives the service: ~DispatchService detaches
    // the store observers it installed before the predictor dies.
    predict::PredictorConfig pcfg;
    pcfg.threshold = opt.predictThreshold;
    predict::SelectionPredictor predictor(pcfg);
    if (opt.predict) {
        if (auto model = store.extension("predictor")) {
            try {
                predictor.loadJson(*model);
                std::cout << "predictor warm start: "
                          << predictor.trainingExamples()
                          << " examples\n";
            } catch (const std::exception &e) {
                // A stale or corrupt model is not worth dying over --
                // the predictor just starts cold and retrains.
                std::cerr << "dyseld: ignoring saved predictor model: "
                          << e.what() << '\n';
            }
        } else {
            std::cout << "predictor cold start (threshold "
                      << opt.predictThreshold << ")\n";
        }
    }

    serve::ServiceConfig scfg;
    scfg.runtime.guard.enabled = opt.guard;
    scfg.batch.maxJobs = opt.maxBatch;
    scfg.batch.windowNs = opt.batchWindowNs;
    scfg.audit.sampleRate = opt.auditRate;
    serve::DispatchService svc(store, scfg);
    svc.addDevice(workloads::cpuFactory()());
    svc.addDevice(workloads::gpuFactory()());
    if (opt.faultRate > 0.0 || opt.variantFaultRate > 0.0) {
        svc.device(0).setFaultInjector(&cpuFaults);
        svc.device(1).setFaultInjector(&gpuFaults);
        std::cout << "fault injection on: rate " << opt.faultRate
                  << ", variant rate " << opt.variantFaultRate
                  << ", seed 0x" << std::hex << opt.faultSeed
                  << std::dec << '\n';
    }
    if (opt.guard)
        std::cout << "variant guard on\n";
    if (!opt.tracePath.empty()) {
        svc.tracer().setEnabled(true);
        std::cout << "tracing on -> " << opt.tracePath << '\n';
    }
    if (opt.predict)
        svc.setPredictor(&predictor);
    if (opt.auditRate > 0.0)
        std::cout << "selection audit on: rate " << opt.auditRate
                  << '\n';
    svc.start();

    AdminRunner admin;
    if (opt.adminPort >= 0) {
        const support::Status st =
            admin.attach(static_cast<std::uint16_t>(opt.adminPort),
                         svc, opt.predict ? &predictor : nullptr);
        if (!st.ok()) {
            std::cerr << "dyseld: admin plane failed: " << st.toString()
                      << '\n';
            svc.stop();
            return 1;
        }
        std::cout << "admin plane on http://127.0.0.1:" << admin.port()
                  << "/\n"
                  << std::flush;
    }

    auto pass1 = makeMix(false);
    runPass(svc, pass1);
    printPass("pass 1 (base mix)", pass1);

    auto pass2 = makeMix(true);
    runPass(svc, pass2);
    printPass("pass 2 (same mix + changed sgemm size bucket)", pass2);

    if (opt.adminPort >= 0 && opt.adminHoldSec > 0) {
        std::cout << "admin hold: up to " << opt.adminHoldSec
                  << "s (GET /quitquitquit to release)\n"
                  << std::flush;
        admin.hold(opt.adminHoldSec);
    }
    admin.detach();
    svc.stop();

    std::cout << "\n--- selection store ---\n";
    support::Table srec({"signature", "device", "bucket", "selected",
                         "launches", "profiled", "confidence",
                         "unit ns", "valid", "quarantined"});
    for (const auto &r : store.records()) {
        srec.row()
            .cell(r.signature)
            .cell(r.device.substr(0, r.device.find('/', 4)))
            .cell(std::uint64_t{r.bucket})
            .cell(r.selectedName)
            .cell(r.launches)
            .cell(r.profiledLaunches)
            .cell(r.confidence)
            .cell(r.unitTimeNs, 1)
            .cell(r.valid ? "yes" : "no")
            .cell(r.quarantinedVariant >= 0 ? "yes" : "no");
    }
    srec.print(std::cout);

    // Read-only: a report line must not create the family it reads.
    auto counter = [&](const char *name) {
        return svc.metrics().counterValue(name);
    };
    std::cout << "store: " << counter("store.hit") << " hits, "
              << counter("store.miss") << " misses, "
              << store.driftInvalidations() << " drift invalidations, "
              << store.quarantineCount() << " quarantines\n";
    if (opt.faultRate > 0.0 || opt.variantFaultRate > 0.0) {
        std::cout << "\n--- fault injection ---\n";
        printInjector("cpu", cpuFaults);
        printInjector("gpu", gpuFaults);
        std::cout << "recovery: " << counter("recover.retries")
                  << " retries, " << counter("recover.timeouts")
                  << " timeouts, " << counter("breaker.trips")
                  << " breaker trips, " << counter("store.quarantine")
                  << " quarantines, " << counter("jobs.failed")
                  << " jobs failed\n";
    }

    if (opt.predict) {
        std::cout << "\n--- learned selection ---\n"
                  << "predict: " << counter("predict.hit") << " hits, "
                  << counter("predict.miss") << " misses, "
                  << counter("predict.demoted") << " demotions, "
                  << counter("predict.train") << " trained; calibration "
                  << predictor.calibration() << '\n';
    }

    if (opt.guard) {
        std::cout << "\n--- variant guard ---\n"
                  << "detections: " << counter("guard.mismatch")
                  << " mismatch, " << counter("guard.redzone")
                  << " redzone, " << counter("guard.nan") << " nan, "
                  << counter("guard.watchdog") << " watchdog; "
                  << counter("guard.excluded") << " exclusions, "
                  << counter("guard.repair") << " repairs\n";
        if (store.blacklistSize() > 0) {
            support::Table bl({"signature", "variant", "device",
                               "reason", "strikes"});
            for (const auto &e : store.blacklistEntries()) {
                bl.row()
                    .cell(e.signature)
                    .cell(e.variant)
                    .cell(e.device.substr(0, e.device.find('/', 4)))
                    .cell(e.reason)
                    .cell(e.strikes);
            }
            bl.print(std::cout);
        }
        std::cout << "blacklist: " << store.blacklistSize()
                  << " entries\n";
    }

    std::cout << "\n--- metrics ---\n";
    if (opt.metricsFormat == "json")
        std::cout << svc.metrics().renderJson().dump(2) << '\n';
    else if (opt.metricsFormat == "prom")
        std::cout << svc.metrics().renderPrometheus();
    else
        std::cout << svc.metrics().renderText();

    if (!opt.tracePath.empty()) {
        std::ofstream out(opt.tracePath);
        if (!out) {
            std::cerr << "dyseld: cannot write trace to "
                      << opt.tracePath << '\n';
            return 1;
        }
        out << svc.tracer().exportChromeTrace().dump(1) << '\n';
        if (!out.flush()) {
            std::cerr << "dyseld: trace write to " << opt.tracePath
                      << " failed\n";
            return 1;
        }
        std::cout << "wrote " << svc.tracer().eventCount()
                  << " trace events to " << opt.tracePath
                  << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }

    if (opt.save) {
        // The learned model rides the store file (a v4 extension), so
        // the next --predict run warm-starts both together.
        if (opt.predict)
            store.setExtension("predictor", predictor.toJson());
        const support::Status saved = store.saveFile(opt.storePath);
        if (!saved.ok()) {
            // A silent save failure would cost every selection (and
            // blacklist entry) earned this run.
            std::cerr << "dyseld: " << saved.toString() << '\n';
            return 1;
        }
        std::cout << "\nsaved " << store.size() << " records ("
                  << store.blacklistSize() << " blacklisted) to "
                  << opt.storePath << '\n';
    }
    return 0;
}
