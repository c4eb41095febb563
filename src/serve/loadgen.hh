/**
 * @file
 * Closed-loop load generator for the dispatch service.
 *
 * Drives a fresh DispatchService with N submitter threads against M
 * simulated devices over a mixed signature/size set: each submitter
 * owns a job slot, submits, waits for the result, and submits the
 * next job (closed loop -- offered concurrency equals the submitter
 * count).  The run measures the service's hot path end to end:
 * wall-clock throughput, submit-to-result latency percentiles, the
 * profiled-unit ratio (how much micro-profiling the store and the
 * coalescer eliminated), and the coalesce hit rate.
 *
 * Both `dyseld --loadgen` and bench/ext_service_throughput build on
 * this; LoadGenReport::toJson() is the machine-readable schema the CI
 * perf-smoke job validates.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/dispatch_service.hh"
#include "support/json.hh"

namespace dysel {
namespace serve {

/** One load-generator run's shape. */
struct LoadGenConfig
{
    /** Closed-loop submitter threads. */
    unsigned submitters = 4;

    /** Simulated CPU devices behind the service. */
    unsigned devices = 2;

    /** Hot kernel signatures the submitters draw from. */
    unsigned signatures = 4;

    /**
     * Distinct size classes per signature; class c launches
     * baseUnits << c units, so each class lands in its own store
     * bucket and profiles separately.
     */
    unsigned sizeClasses = 3;

    /** Units of the smallest size class. */
    std::uint64_t baseUnits = 2048;

    /** Jobs each submitter pushes through its loop. */
    std::uint64_t jobsPerSubmitter = 100;

    /**
     * Jobs each submitter keeps in flight at once: every loop
     * iteration submits a burst of this many specs through one
     * submitMany() call and waits for all of them.  1 reproduces the
     * strict closed loop (submit, wait, repeat); larger bursts give
     * the batcher compatible work to fuse.
     */
    std::uint64_t burst = 1;

    /**
     * Batch fusion knobs forwarded to ServiceConfig::batch: most
     * member jobs per fused launch (<= 1 disables batching) and the
     * bounded-delay top-up window.
     */
    std::size_t maxBatchJobs = 1;
    sim::TimeNs batchWindowNs = 0;

    /** Flops per unit of the slow / fast variant in every pool. */
    std::uint64_t slowFlops = 4000;
    std::uint64_t fastFlops = 100;

    /**
     * Variants per kernel pool (>= 2): one fast winner plus
     * variants-1 slower decoys.  More variants make micro-profiling
     * proportionally more expensive -- each decoy costs a profiling
     * slice and, with the guard on, a validated sandbox.
     */
    unsigned variants = 2;

    /**
     * Profiling executions per variant (LaunchOptions::profileRepeats;
     * 0 = the runtime's automatic default).  Serving deployments
     * crank repeats up for noise-robust selections they then reuse
     * fleet-wide from the store -- which is exactly the cost
     * coalescing keeps off the duplicate jobs.
     */
    unsigned profileRepeats = 0;

    /**
     * Validate variants during profiling (reference cross-check,
     * canary redzones, NaN screen).  Models the production setting
     * where an unvalidated variant never reaches users; makes the
     * cold profiling pass the expensive step that coalescing
     * amortizes.
     */
    bool guard = false;

    /**
     * Draw keys in lockstep instead of randomly: job j of every
     * submitter targets phase j's (signature, size class), so each
     * phase's first touch is a contended cold miss -- the serving
     * pattern (a new kernel or shape goes hot fleet-wide at once)
     * that profiling coalescing exists for.  With sweep off, each
     * submitter draws (signature, size) uniformly from its own RNG.
     */
    bool sweep = false;

    /** Service knobs under test. */
    bool coalesce = true;
    bool affinity = true;
    std::size_t maxQueueDepth = 0;
    AdmissionPolicy admission = AdmissionPolicy::Block;

    /** Per-launch LaunchFail probability (0 = no fault injection). */
    double faultRate = 0.0;

    /** Seed for the submitters' signature/size draws (and faults). */
    std::uint64_t seed = 1;

    /**
     * Attach a SelectionPredictor to the service (learned selection):
     * profilable store misses with a confident prediction run warm
     * with zero profiled units instead of micro-profiling.
     */
    bool predict = false;

    /** Confidence gate of the attached predictor. */
    double predictThreshold = 0.65;

    /**
     * Warm-up laps before the measured run: each lap sweeps every
     * (signature, size class) once through a throwaway service so
     * the predictor enters the measured run pretrained (the store
     * does NOT carry over -- only the learned model does).  0 starts
     * the predictor cold.  Only meaningful with predict.
     */
    unsigned pretrainLaps = 0;

    /**
     * Selection-audit sampling rate, forwarded to
     * ServiceConfig::audit.sampleRate (DESIGN §11): that fraction of
     * warm cache hits shadow-re-profiles the runner-up and records
     * realized regret.  0 disables the auditor entirely.
     */
    double auditRate = 0.0;

    /**
     * Hooks around the measured service: onStart fires right after
     * the service starts (before any submitter runs), onStop after
     * the storm drains but before the service stops.  dyseld uses
     * them to attach the admin plane to a loadgen run; predictor
     * pretrain warm-up laps never fire them.
     */
    std::function<void(DispatchService &)> onStart;
    std::function<void(DispatchService &)> onStop;

    /**
     * Drive the storm against this store instead of a fresh internal
     * one (fleet federation: the store is shared with a Replicator
     * and typically saved/compared after the run).  Must outlive the
     * call.  nullptr keeps the classic self-contained behaviour.
     */
    store::SelectionStore *externalStore = nullptr;

    /**
     * Attach this federation replicator to the service (DESIGN §13):
     * profilable cold misses consult the fleet before profiling
     * locally.  Requires externalStore (the replicator wraps the same
     * store).  Must outlive the call.
     */
    fed::Replicator *federation = nullptr;
};

/** What one run measured. */
struct LoadGenReport
{
    LoadGenConfig config;

    std::uint64_t jobsSubmitted = 0;
    std::uint64_t jobsCompleted = 0; ///< terminal with OK status
    std::uint64_t jobsFailed = 0;    ///< terminal with error status
    std::uint64_t jobsShed = 0;      ///< RESOURCE_EXHAUSTED by admission

    double wallSeconds = 0.0;
    double jobsPerSec = 0.0;

    /** Submit-to-result wall latency percentiles (microseconds). */
    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;

    /** Micro-profiling work relative to total launched units. */
    std::uint64_t profiledUnits = 0;
    std::uint64_t totalUnits = 0;
    double profiledUnitRatio = 0.0;

    /** Coalescer activity (from the service's metrics registry). */
    std::uint64_t coalesceLeaders = 0;
    std::uint64_t coalesceFollowers = 0;
    std::uint64_t coalesceHits = 0;
    /** hits / (hits + leaders): share of profilable misses served
     *  by another job's profiling pass. */
    double coalesceHitRate = 0.0;

    /** Jobs served warm from the store, and jobs that missed it
     *  (store.hit / store.miss: one or the other per admitted job). */
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    /** storeHits / jobsSubmitted: share of jobs served warm. */
    double storeHitRate = 0.0;

    /** Batch fusion activity (batch.* counters; 0 with batching off). */
    std::uint64_t batchLaunches = 0;
    std::uint64_t batchJobs = 0;
    std::uint64_t batchDemoted = 0;
    /** batchJobs / batchLaunches: mean fused-launch occupancy. */
    double avgBatchSize = 0.0;

    /** Predictor activity (predict.* counters; 0 with predict off). */
    std::uint64_t predictHits = 0;
    std::uint64_t predictMisses = 0;
    std::uint64_t predictDemotions = 0;
    std::uint64_t predictTrained = 0;

    /** Selection-audit activity (audit.* counters; 0 with audit off). */
    std::uint64_t auditSamples = 0;
    std::uint64_t auditDemotions = 0;
    std::uint64_t auditProbeFailures = 0;
    /** Mean realized regret across sampled warm hits (fraction). */
    double auditMeanRegret = 0.0;

    /** Federation activity (fed.* counters; 0 without federation). */
    std::uint64_t fedWarmHits = 0;
    std::uint64_t fedLeases = 0;
    std::uint64_t fedFallbacks = 0;

    /**
     * Keys ("signature|fingerprint|bucket") whose micro-profiling
     * pass ran in THIS service (store profile observer; remote
     * records merged in by gossip do not count).  The fleet test
     * unions these across replicas to assert each key was profiled
     * exactly once fleet-wide.  Collected only when no predictor is
     * attached (the predictor owns the observer slot).
     */
    std::vector<std::string> profiledKeys;

    /**
     * Order-independent digest of every completed job's output
     * buffer (per-job FNV-1a over out[0, units), XOR-combined), so
     * runs that only differ in selection policy -- predictor on/off,
     * coalescing on/off -- can assert byte-identical job outputs.
     */
    std::uint64_t outputChecksum = 0;

    /** Machine-readable form (the BENCH_service_throughput schema). */
    support::Json toJson() const;
};

/** Run one closed-loop load against a fresh service. */
LoadGenReport runLoadGen(const LoadGenConfig &cfg);

} // namespace serve
} // namespace dysel
