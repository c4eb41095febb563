/**
 * @file
 * Multi-device dispatch service (dyseld core).
 *
 * Owns one DySel Runtime per registered device, each driven by a
 * dedicated worker thread.  Launch jobs enter through per-device
 * queue shards and are routed least-loaded, with a per-signature
 * affinity once a selection exists so repeated launches of a kernel
 * keep hitting the device whose selection is cached.  Every worker is
 * warm-started from a shared persistent SelectionStore: a job whose
 * (signature, device fingerprint, size bucket) has a valid record
 * runs plain with the stored winner (zero profiled units); a miss
 * runs with micro-profiling and feeds the store through the runtime's
 * launch observer.  Counters and latency histograms are exposed
 * through a support::MetricsRegistry.
 *
 * Submission API (DESIGN §10): the public surface is the builder-style
 * JobSpec plus submitMany(), which admits a whole span of jobs under
 * one shard-lock acquisition per destination shard and returns their
 * handles.  Kernel pools are installed through registerKernelPool(),
 * which is thread-safe before *and* after start(); runtimeAt() is
 * const observation only.
 *
 * Batched serving (DESIGN §10): with ServiceConfig::batch.maxJobs
 * > 1, a worker that claims a job gathers every compatible queued job
 * (same signature, size bucket, and launch policy; bounded by
 * batch.maxJobs/maxUnits, topped up for batch.windowNs of bounded
 * delay) and runs them as ONE fused launch with per-job output
 * slicing -- one store read, one device submit.  Handles, done
 * callbacks, deadlines, and tracer correlation stay per job; a fused
 * launch that fails demotes every member to solo re-execution (where
 * the normal retry machinery applies) instead of failing the batch.
 *
 * Allocation-free hot path (DESIGN §10): job states and queued-job
 * shells are recycled through a per-shard serve::BufferPool and the
 * queues are vector-backed rings, so a steady-state submit->complete
 * cycle performs no heap allocation on the submitter side (see
 * BufferPool::Stats for the worker-side accounting).
 *
 * Scaling (DESIGN §8): the hot path is sharded.  submitMany() and
 * completion touch only the target device's queue shard (its own
 * mutex + condition variables); device loads and the in-flight count
 * are atomics, so routing reads them lock-free.  The one remaining
 * global lock (routeMu) covers just the affinity table and the
 * circuit-breaker state -- it is held for a map lookup, never across
 * queue operations or wakeups.
 *
 * Profiling coalescing: concurrent jobs that miss the store on the
 * same (signature, device fingerprint, size bucket) elect one
 * *leader* which runs the micro-profiling launch; the *followers*
 * wait for the leader's record to land in the store and then run as
 * plain warm-started launches (coalesce.* counters; a tracer instant
 * ties each follower to its leader's correlation id).  A leader that
 * fails hands leadership to one of its followers.
 *
 * Admission control: with maxQueueDepth > 0, a submit against a
 * full device queue either blocks until the queue has room
 * (AdmissionPolicy::Block, backpressure) or returns a handle already
 * completed with RESOURCE_EXHAUSTED (AdmissionPolicy::Shed).
 * Retried jobs bypass admission -- re-queueing an admitted job must
 * never deadlock a worker.
 *
 * Telemetry: every counter, histogram, trace instant and flight record
 * the service writes is declared once in serve/events.hh; emit() and
 * observe() are the only writers (DESIGN §7, §11).
 *
 * Fault tolerance: a job whose launch fails with a retryable code
 * (Unavailable, DeadlineExceeded, Internal) is retried up to
 * maxAttempts times with exponential virtual backoff, re-routed away
 * from the devices that already failed it.  Devices that fail
 * breakerThreshold jobs in a row trip a circuit breaker and stop
 * receiving work for breakerCooldown routing decisions, after which
 * a single probe job decides whether the breaker closes or reopens.
 * Warm-started launch failures also feed SelectionStore::
 * reportFailure so a bad stored selection is quarantined.  All
 * recovery events are counted in the metrics registry.
 *
 * Variant guard: with runtime.guard.enabled, each runtime validates
 * variants during micro-profiling (output cross-check, canary
 * redzones, NaN screen, watchdog); detections surface as guard.*
 * counters, and a variant that strikes out is blacklisted in the
 * shared store keyed by (signature, variant, device fingerprint).
 * Jobs seed their runtime's guard from the store, so blacklist
 * entries loaded from disk keep excluding their variants after a
 * restart, and a warm start whose stored winner was since
 * blacklisted is demoted to a re-profiling miss.
 *
 * The simulated devices are single-threaded event loops, so each
 * runtime is touched only by its worker thread; the store, the
 * coalescer, and the metrics registry are the only shared state and
 * are thread-safe.
 */
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dysel/obs/selection_auditor.hh"
#include "dysel/options.hh"
#include "dysel/predict/predictor.hh"
#include "dysel/report.hh"
#include "dysel/runtime.hh"
#include "dysel/store/selection_store.hh"
#include "kdp/args.hh"
#include "sim/device.hh"
#include "support/metrics.hh"
#include "support/status.hh"
#include "support/tracing/flight_recorder.hh"
#include "support/tracing/tracer.hh"

#include "batcher.hh"
#include "buffer_pool.hh"
#include "coalescer.hh"
#include "events.hh"
#include "job.hh"

namespace dysel {

namespace fed {
class Replicator;
}

namespace serve {

/** What submission does when the target device queue is full. */
enum class AdmissionPolicy {
    /** Block the submitter until the queue has room (backpressure). */
    Block,
    /** Complete the handle immediately with RESOURCE_EXHAUSTED. */
    Shed,
};

/** Service-wide configuration. */
struct ServiceConfig
{
    /** Configuration applied to every per-device runtime. */
    runtime::RuntimeConfig runtime;

    /**
     * Route every job of a signature to the device that first cached
     * a selection for it (keeps cache warm and outputs ordered);
     * disable for pure least-loaded spreading.  A retry re-pins the
     * affinity to the device that eventually succeeded.
     */
    bool affinity = true;

    /**
     * Coalesce concurrent micro-profiling of the same (signature,
     * device fingerprint, size bucket): one leader profiles, its
     * followers wait and then warm-start from the fresh record.
     * Only jobs large enough to profile (runtime.minUnitsForProfiling)
     * take part.
     */
    bool coalesce = true;

    /**
     * Batch aggregation (DESIGN §10): batch.maxJobs > 1 lets each
     * worker fuse compatible queued jobs into one launch, bounded by
     * batch.maxUnits summed units and topped up for batch.windowNs
     * of wall-clock delay.
     */
    BatchLimits batch;

    /**
     * Queued jobs each device accepts before admission control kicks
     * in; 0 means unbounded (no admission control).
     */
    std::size_t maxQueueDepth = 0;

    /** Full-queue behaviour (only meaningful with maxQueueDepth > 0). */
    AdmissionPolicy admission = AdmissionPolicy::Block;

    /** Attempts per job (first run + retries) before giving up. */
    unsigned maxAttempts = 3;

    /**
     * Virtual backoff charged before retry n is
     * backoffBaseNs << (n - 1).  Backoff is accounted, not slept:
     * the simulated devices keep their own clocks, so the service
     * records the penalty in JobResult::backoffNs and the
     * job.backoff_ns histogram instead of stalling a worker thread.
     */
    sim::TimeNs backoffBaseNs = 1'000'000;

    /** Consecutive device faults that trip its circuit breaker. */
    unsigned breakerThreshold = 3;

    /**
     * Routing decisions an open breaker sheds before it lets one
     * probe job through (half-open).
     */
    unsigned breakerCooldown = 4;

    /**
     * Entries each worker's always-on flight recorder retains; a
     * failing job's Status payload carries the dump (the last things
     * its worker did: device, phase, detail).  The admin plane's
     * /debug/flight endpoint snapshots the same ring on demand.
     */
    std::size_t flightRecorderCapacity = 64;

    /**
     * Continuous selection-quality audit (DESIGN §11): with
     * audit.sampleRate > 0, every round(1/rate)-th warm store hit is
     * followed by a shadow probe of the served winner against the
     * stored runner-up, realized regret is tracked per key, and a key
     * whose regret EMA stays above audit.regretThreshold is demoted
     * into the store quarantine.  Disabled by default.
     */
    obs::AuditConfig audit;

    /**
     * Typed consistency check, called by the DispatchService ctor
     * (throwing on error) and by dyseld flag parsing (reported to
     * the user).  Catches the silently-accepted nonsense configs:
     * zero attempts, a backoff shift that overflows, a zero breaker
     * threshold, a batch that can never fit its queue, and a batch
     * window with batching disabled.
     */
    support::Status validate() const;
};

/**
 * The dispatch service.
 */
class DispatchService
{
  public:
    /**
     * @p st is the shared selection store; it must outlive the
     * service (the caller typically loads it from disk before and
     * saves it after).  Throws std::invalid_argument when
     * cfg.validate() fails.
     */
    explicit DispatchService(store::SelectionStore &st,
                             ServiceConfig cfg = ServiceConfig());
    ~DispatchService();

    DispatchService(const DispatchService &) = delete;
    DispatchService &operator=(const DispatchService &) = delete;

    /**
     * Register a device (before start()).  The service owns the
     * device and its runtime.  Returns the device index.  Kernel
     * pools already registered through registerKernelPool() are
     * installed on the new device's runtime immediately.
     */
    unsigned addDevice(std::unique_ptr<sim::Device> device);

    std::size_t deviceCount() const { return workers.size(); }
    sim::Device &device(unsigned idx);

    /**
     * Const observation of a device's runtime (selection cache,
     * guard state, registered variants).  For installing kernels use
     * registerKernelPool() -- mutable access from outside the worker
     * thread is no longer part of the API.
     */
    const runtime::Runtime &runtimeAt(unsigned idx) const;

    /**
     * Install a kernel pool on every device runtime, before or after
     * start().  The installer runs immediately on all current
     * runtimes when the service is not running; once workers run,
     * each worker applies pending installers on its own thread
     * before its next job, so no cross-thread runtime access ever
     * happens.  Installers are retained and applied to devices added
     * later.  Fails with InvalidArgument for an empty installer and
     * Internal when an immediate application throws.
     */
    support::Status registerKernelPool(
        std::function<void(runtime::Runtime &)> installer);

    /**
     * Attach a selection predictor (before start(); nullptr
     * detaches).  The service wires the store's profile feed into the
     * predictor as its online training stream and consults it on
     * every profilable miss of a key the store has no record of (an
     * invalidated key re-profiles): a prediction at or above the
     * predictor's confidence threshold seeds the store and the job
     * runs warm with zero profiled units (predict.hit); below it the
     * job micro-profiles as usual (predict.miss).  A predicted
     * selection that drifts, fails, or gets blacklisted is demoted to
     * a forced profile and fed back as a corrective example
     * (predict.demoted).  The predictor must outlive the service.
     */
    void setPredictor(predict::SelectionPredictor *predictor);

    /**
     * Attach a fleet federation replicator (before start(); nullptr
     * detaches).  On every profilable cold miss the service asks the
     * replicator who profiles: the key's rendezvous-hash owner pays
     * the fleet's single profiling pass, everyone else parks on the
     * remote-pending state and warm-starts from the replicated
     * record (fed.warm_hit; a tracer instant carries the owner's
     * profiling cid).  The replicator must outlive the service.
     */
    void setFederation(fed::Replicator *fedp);

    /** Spawn one worker thread per device. */
    void start();

    /**
     * Submit a span of job specs; their handles are written to
     * @p out (out.size() >= specs.size()).  Requires start().  Jobs
     * are routed first, then each destination shard's lock is taken
     * once for all of its jobs -- a burst of compatible jobs lands in
     * one lock acquisition and is immediately fusable by the worker.
     * Admission control applies per job.
     * Steady-state calls perform no heap allocation on this thread
     * (see the JobSpec reuse contract).
     */
    void submitMany(std::span<const JobSpec> specs,
                    std::span<JobHandle> out);

    /** Convenience overload returning the handles in a vector. */
    std::vector<JobHandle> submitMany(std::span<const JobSpec> specs);

    /** Block until every submitted job has completed. */
    void drain();

    /** Drain, then join all workers.  Idempotent. */
    void stop();

    support::MetricsRegistry &metrics() { return reg; }
    const store::SelectionStore &selectionStore() const { return store_; }

    /**
     * The selection auditor, or nullptr when config.audit is
     * disabled.  Observation only (totals, mean regret, per-key
     * state); the auditor is driven by the workers.
     */
    const obs::SelectionAuditor *auditor() const
    {
        return auditor_.get();
    }

    /** Live health snapshot of one device worker. */
    struct DeviceHealth
    {
        unsigned index = 0;
        std::string name;
        std::string fingerprint;
        /** Jobs queued on the shard (excludes the running job). */
        std::size_t queueDepth = 0;
        /** Queued + running jobs (the routing load input). */
        std::uint64_t load = 0;
        bool breakerOpen = false;
        unsigned breakerCooldownLeft = 0;
        unsigned consecFailures = 0;
        /** Published device-clock snapshot (virtual ns). */
        std::uint64_t clockNs = 0;
    };

    /** Live health snapshot of the whole service. */
    struct ServiceHealth
    {
        bool running = false;
        std::uint64_t inFlight = 0;
        std::vector<DeviceHealth> devices;
        /** Any breaker currently open. */
        bool anyBreakerOpen() const
        {
            for (const auto &d : devices)
                if (d.breakerOpen)
                    return true;
            return false;
        }
    };

    /**
     * Snapshot queue depths, loads, breaker states, and the in-flight
     * count.  Safe from any thread while workers run: takes routeMu
     * for the breaker fields, then each shard lock briefly for its
     * queue depth -- never both at once.
     */
    ServiceHealth health() const;

    /**
     * On-demand dump of worker @p idx's flight recorder (the last
     * things that worker did).  Safe from any thread; throws
     * std::out_of_range for a bad index.
     */
    std::string flightDump(unsigned idx) const;

    /**
     * Allocation accounting of @p idx's shard pool: fresh vs reused
     * states and shells.  In a steady-state window the fresh counts
     * stay flat -- the invariant the stress batch test asserts.
     */
    BufferPool::Stats poolStats(unsigned idx) const;

    /**
     * The service-wide trace sink (disabled by default; call
     * tracer().setEnabled(true) before start()).  Jobs emit queue
     * spans, retry/re-route instants, coalescing attach/served
     * instants, and store hit/quarantine instants here, and every
     * per-device runtime is wired to the same sink with the job id as
     * correlation id -- so one job's service-, runtime-, and
     * device-level events share a cid.
     */
    support::tracing::Tracer &tracer() { return tracer_; }

  private:
    /** Registry handle of one event-table row (null: not a metric). */
    struct EventHandle
    {
        support::Counter *counter = nullptr;
        support::Histogram *histogram = nullptr;
    };
    using EventHandles = std::array<EventHandle, eventCount>;

    struct Worker
    {
        std::unique_ptr<sim::Device> dev;
        std::unique_ptr<runtime::Runtime> rt;
        std::string fingerprint;
        std::thread thread;

        /**
         * Queue shard: its own lock and wakeups, so submission and
         * completion touch only the target device's shard.
         */
        std::mutex qmu;
        std::condition_variable qcv;     ///< worker: new job or stop
        std::condition_variable spaceCv; ///< submitters: queue has room
        JobRing queue;                   ///< guarded by qmu
        /** Shell / job-state freelists for this shard's jobs. */
        BufferPool pool;
        /** Queued + running jobs (lock-free routing input). */
        std::atomic<std::uint64_t> load{0};

        /** Gathered batch members + fused slices (worker thread
         * only; capacity reused across batches). */
        std::vector<detail::QueuedJob> batchMembers;
        std::vector<runtime::FusedSlice> batchSlices;

        /** Installers from registerKernelPool() this worker has
         * applied to its runtime (worker thread only). */
        std::size_t installersApplied = 0;

        /** Circuit breaker (guarded by DispatchService::routeMu). */
        unsigned consecFailures = 0;
        bool breakerOpen = false;
        /** Routing decisions left before a half-open probe. */
        unsigned breakerCooldownLeft = 0;

        /** Handles of the per-device event rows, this device's series. */
        EventHandles handles;
        /** The job this worker runs (worker thread only): the
         * correlation id of events fired from inside store and runtime
         * callbacks. */
        std::uint64_t currentJob = 0;

        /** This worker's trace track id. */
        std::uint64_t traceTrack = 0;
        /** Always-on ring of recent phases (worker thread only). */
        support::tracing::FlightRecorder flight;
        /**
         * Published device-clock snapshot: the worker stores its
         * device's virtual time whenever the device is idle, so
         * submission can timestamp queue spans without touching the
         * (possibly running) event engine from another thread.
         */
        std::atomic<sim::TimeNs> clockNs{0};
    };

    /** Attribute pairs of one event (trace-instant args; the flight
     * record's detail renders them as `key=value`). */
    using EventAttrs =
        std::initializer_list<std::pair<std::string_view, std::string_view>>;

    /**
     * The one emission point of a serving event (serve/events.hh):
     * adds @p count to the row's counter, writes its trace instant
     * when the tracer is enabled and appends its flight record, both
     * on @p w's track and ring at @p w's device clock (the published
     * snapshot when called off @p w's thread).  @p w may be null for a
     * service-wide row fired outside any worker: it is then counted
     * only.
     */
    void emit(Worker *w, Event e, std::uint64_t jobId,
              std::uint64_t count = 1, EventAttrs attrs = {});

    /** Record one sample of a histogram row. */
    void observe(Worker &w, Event e, double value);

    /**
     * Register the service-wide rows (@p device empty) or one device's
     * per-device rows, with their HELP text, into @p out: the registry
     * hands out stable references, so emit() never formats a name or
     * looks one up.
     */
    void resolveHandles(EventHandles &out, const std::string &device);

    /** Which selection a job runs: readStore() starts, resolve()
     * completes it. */
    struct Resolution
    {
        /** The record the job runs warm from; none: it runs cold. */
        std::optional<store::SelectionRecord> rec;
        bool predicted = false;         ///< rec was seeded for this job
        std::uint64_t coalescedWith = 0; ///< leader whose record it rode
        /** Held while the job profiles as its key's coalescing
         * leader; releasing it wakes the followers. */
        CoalesceLease lease;
    };

    void workerLoop(unsigned idx);

    /** Solo run of @p qj from its store read @p r; the coalesce lease
     * releases on return. */
    JobResult runJob(unsigned idx, detail::QueuedJob &qj, Resolution r);

    /** Whether @p job may micro-profile on a store miss. */
    bool profilable(const Job &job) const;

    /**
     * The first resolution stage, and a batch's only one: the store's
     * record of @p job's key on @p w's device, unless the guard has
     * blacklisted its winner since (guard.blocked_warmstart).
     */
    Resolution readStore(Worker &w, const Job &job);

    /** readStore()'s filtered read, uncounted: the later re-reads. */
    std::optional<store::SelectionRecord>
    storedWinner(const Worker &w, const Job &job) const;

    /**
     * The later stages, for a profilable job whose store read @p r
     * missed: federation, the predictor (for a key the store has no
     * record of), then the coalescer (ride the leader's record, or
     * lead and hold r.lease).
     */
    void resolve(Worker &w, const Job &job, Resolution &r);

    /** The warm-import step: @p rec's winner becomes @p w's cached
     * selection of @p sig.  Fails if the runtime refuses. */
    support::Status importWarm(Worker &w, const std::string &sig,
                               const store::SelectionRecord &rec);

    /**
     * Count store.hit (from @p hit) or store.miss for each of @p jobs
     * not counted yet, under the first job's id: one count per job,
     * however many attempts or batch demotions it goes through.
     */
    void countStoreRead(Worker &w, std::span<detail::QueuedJob> jobs,
                        const store::SelectionRecord *hit);

    /**
     * Gather a batch behind @p head (bounded-delay top-up included)
     * and run it as one fused launch from the head's store read @p r,
     * with per-job completion; consumes @p head and the members.
     * False, @p head untouched for the solo path, when it is
     * ineligible, a profilable miss, or nothing fuses.
     */
    bool tryRunBatch(unsigned idx, detail::QueuedJob &head,
                     const Resolution &r);

    /** Fused execution of w.batchMembers (head at index 0). */
    void runBatch(unsigned idx,
                  const std::optional<store::SelectionRecord> &rec);

    /** Worker-side end of a solo attempt: the retry decision and
     * the breaker, then complete() unless the job is re-routed. */
    void completeSolo(unsigned idx, detail::QueuedJob &qj,
                      JobResult res);

    /**
     * The one terminal completion of a job that ran on @p idx, solo
     * or as a batch member: device metrics for a successful launch,
     * the job deadline, the affinity pin (with @p pinAffinity, on
     * success), the jobs.* / attempts / backoff metrics, the flight
     * dump on failure; then the done callback, the shell back to the
     * pool before the handle reports Done, the shard load and
     * jobDone().
     */
    void complete(unsigned idx, detail::QueuedJob &qj, JobResult res,
                  bool pinAffinity);

    /**
     * Claim a dequeued job for running (Queued -> Running) and close
     * its queue span.  Returns false when cancel() won the race: the
     * job then gets its exactly-once callback here and leaves the
     * system (@p qj is consumed).
     */
    bool claim(unsigned idx, detail::QueuedJob &qj);

    /** Apply registerKernelPool() installers this worker has not yet
     * run (worker thread; cheap relaxed check when up to date). */
    void applyPendingInstallers(unsigned idx);

    /** Push @p qj onto @p idx's shard and wake its worker. */
    void enqueue(unsigned idx, detail::QueuedJob qj);

    /** One job left the system: drop inFlight and wake drain(). */
    void jobDone();

    /**
     * Pick the worker for @p signature, skipping @p excluded devices
     * and open breakers (takes routeMu).  Decrements open-breaker
     * cooldowns as a side effect; an expired cooldown makes the
     * device eligible for one probe job.  Allocation-free.
     */
    unsigned route(const std::string &signature,
                   const std::vector<unsigned> &excluded);

    /** Breaker bookkeeping after an attempt on @p idx (routeMu). */
    void breakerObserve(unsigned idx, bool deviceFault);

    /** Whether the guard bars @p variant of @p sig on @p w's device
     * (a stored or predicted winner blacklisted since). */
    bool blacklisted(const Worker &w, const std::string &sig,
                     const std::string &variant) const;

    /** Emit a store observation of the job @p w runs. */
    void noteObservation(Worker &w, store::Observation obs,
                         const std::string &signature);

    /**
     * Shadow-audit a warm solo hit (worker thread, inside runJob
     * while the job's buffers are still alive): probe the served
     * winner and the stored runner-up over equal forced-variant
     * slices and hand the measurements to the auditor.
     */
    void auditWarmHit(unsigned idx, const detail::QueuedJob &qj,
                      const store::SelectionRecord &rec);

    store::SelectionStore &store_;
    ServiceConfig config;
    Batcher batcher;
    predict::SelectionPredictor *predictor_ = nullptr;
    fed::Replicator *fed_ = nullptr;
    support::MetricsRegistry reg;
    support::tracing::Tracer tracer_;
    ProfileCoalescer coalescer;
    std::unique_ptr<obs::SelectionAuditor> auditor_;
    std::vector<std::unique_ptr<Worker>> workers;

    /** Kernel-pool installers (guarded by poolMu); installerCount
     * mirrors installers.size() for the workers' cheap check. */
    std::mutex poolMu;
    std::vector<std::function<void(runtime::Runtime &)>> installers;
    std::atomic<std::size_t> installerCount{0};

    /**
     * Routing state: affinity map + circuit breakers.  Held for map
     * lookups only -- never across queue operations, wakeups, or
     * launches.
     */
    mutable std::mutex routeMu;
    std::map<std::string, unsigned> affinityMap;

    /** drain() support: jobs somewhere in the system. */
    std::atomic<std::uint64_t> inFlight{0};
    std::mutex idleMu;
    std::condition_variable idle;

    /** Handles of the service-wide event rows, resolved once. */
    EventHandles handles_;

    /** The worker whose thread this is; null off the worker threads. */
    static thread_local Worker *currentWorker;

    std::atomic<std::uint64_t> nextId{1};
    std::atomic<bool> started{false};
    std::atomic<bool> stopping{false};
};

} // namespace serve
} // namespace dysel
