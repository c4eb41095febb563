#include "dispatch_service.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <stdexcept>

#include "dysel/fed/replicator.hh"
#include "support/logging.hh"

namespace dysel {
namespace serve {

namespace {

std::string
devKey(unsigned idx)
{
    return "dev" + std::to_string(idx);
}

bool
contains(const std::vector<unsigned> &v, unsigned x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

/** Whether a failed attempt with @p code is worth another device. */
bool
retryableCode(support::StatusCode code)
{
    switch (code) {
      case support::StatusCode::Unavailable:
      case support::StatusCode::DeadlineExceeded:
      case support::StatusCode::Internal:
        return true;
      default:
        return false;
    }
}

/**
 * Whether a failed attempt with @p code says something about the
 * device's health (the breaker's input) -- an unknown signature, say,
 * does not.
 */
bool
isDeviceFault(support::StatusCode code)
{
    return code == support::StatusCode::Unavailable
           || code == support::StatusCode::DeadlineExceeded;
}

/**
 * Index of the variant named @p name in @p rt's pool for @p sig, or
 * @p fallback when either is unknown.  Stored and predicted selections
 * name their variant, so they survive re-registration of the pool.
 */
int
variantIndex(const runtime::Runtime &rt, const std::string &sig,
             const std::string &name, int fallback = -1)
{
    if (const auto *variants = rt.findVariants(sig)) {
        for (std::size_t i = 0; i < variants->size(); ++i)
            if ((*variants)[i].name == name)
                return static_cast<int>(i);
    }
    return fallback;
}

std::uint64_t
wallNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Fixed-precision rendering of a confidence or regret (trace
 * attributes). */
std::string
fixedStr(double v, int digits)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

/** Copy a spec's fields into pooled job storage, reusing capacity. */
void
copySpecInto(const JobSpec &spec, Job &dst)
{
    const Job &src = spec.job();
    dst.signature = src.signature;
    dst.units = src.units;
    dst.args = src.args;
    dst.opt = src.opt;
    dst.ensureRegistered = src.ensureRegistered;
    dst.done = src.done;
    dst.deadlineNs = src.deadlineNs;
    dst.noBatch = src.noBatch;
}

const std::vector<unsigned> kNoExclusions;

/**
 * Publish a job's terminal @p res and Done, waking its waiters.  The
 * caller's reference is dropped under the lock: another reference (the
 * pool's, or the handle's) keeps the block alive, so the unlock is this
 * thread's last touch, and a waiter that sees Done finds no reference
 * of this thread's left on the block.
 */
void
publishDone(std::shared_ptr<detail::JobState> state, JobResult res)
{
    std::lock_guard<std::mutex> lock(state->mu);
    state->result = std::move(res);
    state->phase.store(detail::JobState::Done, std::memory_order_release);
    state->cv.notify_all();
    state.reset();
}

/** The guard.<check> row of each guard::CheckKind, in enum order. */
constexpr Event kGuardCheckEvents[] = {
    event("guard.mismatch"), event("guard.redzone"), event("guard.nan"),
    event("guard.watchdog")};

} // namespace

/**
 * Set for the life of each worker thread: observers that fire from
 * inside store calls (the predictor feeds) find the worker, and with it
 * the job, track and clock their events belong to.
 */
thread_local DispatchService::Worker *DispatchService::currentWorker =
    nullptr;

support::Status
ServiceConfig::validate() const
{
    if (maxAttempts == 0)
        return support::Status::invalidArgument(
            "ServiceConfig: maxAttempts must be >= 1");
    if (maxAttempts > 32)
        return support::Status::invalidArgument(
            "ServiceConfig: maxAttempts > 32 overflows the exponential "
            "backoff shift");
    if (breakerThreshold == 0)
        return support::Status::invalidArgument(
            "ServiceConfig: breakerThreshold must be >= 1");
    if (batch.maxJobs == 0)
        return support::Status::invalidArgument(
            "ServiceConfig: batch.maxJobs must be >= 1 "
            "(1 disables batching)");
    if (maxQueueDepth > 0 && batch.maxJobs > maxQueueDepth)
        return support::Status::invalidArgument(
            "ServiceConfig: batch.maxJobs ("
            + std::to_string(batch.maxJobs)
            + ") exceeds maxQueueDepth ("
            + std::to_string(maxQueueDepth)
            + "); a full batch could never accumulate");
    if (batch.windowNs > 0 && !batch.enabled())
        return support::Status::invalidArgument(
            "ServiceConfig: batch.windowNs set while batching is "
            "disabled (batch.maxJobs <= 1)");
    if (auto st = audit.validate(); !st.ok())
        return st;
    return support::Status();
}

bool
JobHandle::done() const
{
    if (!state_)
        return false;
    const int p = state_->phase.load(std::memory_order_acquire);
    return p == detail::JobState::Done
           || p == detail::JobState::Cancelled;
}

void
JobHandle::wait() const
{
    if (!state_)
        return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] {
        const int p = state_->phase.load(std::memory_order_acquire);
        return p == detail::JobState::Done
               || p == detail::JobState::Cancelled;
    });
}

const JobResult &
JobHandle::result() const
{
    if (!state_)
        throw std::logic_error("JobHandle: result() on empty handle");
    wait();
    return state_->result;
}

bool
JobHandle::cancel()
{
    if (!state_)
        return false;
    int expected = detail::JobState::Queued;
    if (!state_->phase.compare_exchange_strong(
            expected, detail::JobState::Cancelled)) {
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(state_->mu);
        state_->result.id = state_->id;
        state_->result.status = support::Status::cancelled(
            "job " + std::to_string(state_->id)
            + " cancelled before dispatch");
    }
    state_->cv.notify_all();
    return true;
}

DispatchService::DispatchService(store::SelectionStore &st,
                                 ServiceConfig cfg)
    : store_(st), config(cfg), batcher(cfg.batch)
{
    config.validate().throwIfError();
    resolveHandles(handles_, "");
    if (config.audit.enabled())
        auditor_ = std::make_unique<obs::SelectionAuditor>(store_,
                                                           config.audit);
}

DispatchService::~DispatchService()
{
    stop();
    if (predictor_) {
        // The store outlives the service: drop the observers that
        // capture `this` before they can dangle.
        store_.setProfileObserver(nullptr);
        store_.setDemotionObserver(nullptr);
    }
}

void
DispatchService::setPredictor(predict::SelectionPredictor *predictor)
{
    if (started.load(std::memory_order_acquire))
        throw std::logic_error(
            "DispatchService: setPredictor after start()");
    predictor_ = predictor;
    if (!predictor_) {
        store_.setProfileObserver(nullptr);
        store_.setDemotionObserver(nullptr);
        return;
    }
    // The training feed: every completed profiling pass the store
    // records becomes one online training example.
    store_.setProfileObserver([this](const store::SelectionRecord &rec) {
        predictor_->observeProfile(store_, rec);
        emit(currentWorker, event("predict.train"), 0);
    });
    // The corrective feed: a predicted selection that drifted,
    // failed, or got blacklisted is demoted back to a forced profile;
    // tell the predictor so it pushes the model away from the variant
    // and pays the calibration penalty.
    store_.setDemotionObserver(
        [this](const store::SelectionRecord &rec) {
            predictor_->observeDemotion(rec);
            Worker *w = currentWorker;
            emit(w, event("predict.demoted"), w ? w->currentJob : 0, 1,
                 {{"signature", rec.signature},
                  {"variant", rec.selectedName},
                  {"confidence", fixedStr(rec.predictedConfidence, 3)}});
        });
}

void
DispatchService::setFederation(fed::Replicator *fedp)
{
    if (started.load(std::memory_order_acquire))
        throw std::logic_error(
            "DispatchService: setFederation after start()");
    fed_ = fedp;
    if (fed_)
        fed_->bindMetrics(&reg);
}

unsigned
DispatchService::addDevice(std::unique_ptr<sim::Device> device)
{
    if (started.load(std::memory_order_acquire))
        throw std::logic_error(
            "DispatchService: addDevice after start()");
    if (!device)
        throw std::invalid_argument("DispatchService: null device");
    auto w = std::make_unique<Worker>();
    w->dev = std::move(device);
    w->rt = std::make_unique<runtime::Runtime>(*w->dev, config.runtime);
    w->fingerprint = w->dev->fingerprint();
    const auto idx = static_cast<unsigned>(workers.size());

    w->flight.reset(config.flightRecorderCapacity);
    // One trace track per device worker; the runtime draws its spans
    // on the same track (profiling passes get subtracks of it).
    const std::string trackName = devKey(idx) + ":" + w->dev->name();
    w->traceTrack = tracer_.track(trackName);
    w->rt->setTracer(&tracer_, trackName);

    resolveHandles(w->handles, devKey(idx));

    // Feed the store from every launch on this runtime: profiled
    // launches refresh their record, plain cache-served launches
    // update the drift baseline (and may quarantine / invalidate).
    // Fused launches are excluded from the baseline -- they amortize
    // launch overhead across members, so their per-unit time is not
    // comparable to a solo run; runBatch() accounts them through
    // SelectionStore::noteServed() instead.  Shadow audit probes are
    // excluded too: a tiny forced-variant slice carries non-amortized
    // launch overhead, and the auditor does its own accounting.
    w->rt->setLaunchObserver(
        [this, w = w.get()](const runtime::LaunchReport &r) {
            const std::uint64_t job = w->currentJob;
            if (r.profiled) {
                // The job id doubles as the launch's trace correlation
                // id; stamping it into the record lets a follower
                // replica's warm hit trace back to this profiling
                // pass (DESIGN §13).
                store_.recordProfile(w->fingerprint, r, job);
                emit(w, event("store.record"), job);
            } else if (r.fromCache && !r.fused && !r.shadow) {
                noteObservation(*w, store_.observePlain(w->fingerprint, r),
                                r.signature);
            }
            if (r.guardExcluded > 0)
                emit(w, event("guard.excluded"), job, r.guardExcluded);
            if (r.guardRepairs > 0)
                emit(w, event("guard.repair"), job, r.guardRepairs);
        });

    // Guard telemetry: one "guard.<check>" count and guard.strike
    // instant per detection, emitted where the strike happens (a
    // launch that strikes and then fails still accounts it),
    // reconcilable 1:1 with the fault injector's variant-fault log.
    w->rt->guard().setStrikeObserver(
        [this, w = w.get()](const std::string &, const std::string &variant,
                            guard::CheckKind check) {
            emit(w, kGuardCheckEvents[static_cast<std::size_t>(check)],
                 w->currentJob, 1,
                 {{"variant", variant},
                  {"check", guard::checkKindName(check)}});
        });

    // Persist guard blacklistings: a variant that struck out on this
    // device is recorded in the store under the device fingerprint,
    // so it is never re-served -- across restarts included.
    w->rt->guard().setBlacklistObserver(
        [this, w = w.get()](const std::string &sig,
                            const std::string &variant,
                            const std::string &reason) {
            store_.blacklistVariant(sig, variant, w->fingerprint, reason);
            emit(w, event("guard.blacklist"), w->currentJob);
        });

    // Kernel pools registered before this device existed still apply
    // to it (registerKernelPool retains every installer).
    {
        std::lock_guard<std::mutex> lock(poolMu);
        for (const auto &installer : installers)
            installer(*w->rt);
        w->installersApplied = installers.size();
    }

    workers.push_back(std::move(w));
    return idx;
}

sim::Device &
DispatchService::device(unsigned idx)
{
    return *workers.at(idx)->dev;
}

const runtime::Runtime &
DispatchService::runtimeAt(unsigned idx) const
{
    return *workers.at(idx)->rt;
}

support::Status
DispatchService::registerKernelPool(
    std::function<void(runtime::Runtime &)> installer)
{
    if (!installer)
        return support::Status::invalidArgument(
            "DispatchService: empty kernel-pool installer");
    std::lock_guard<std::mutex> lock(poolMu);
    if (!started.load(std::memory_order_acquire)) {
        // No workers running: install on every runtime right here.
        try {
            for (auto &w : workers)
                installer(*w->rt);
        } catch (const std::exception &e) {
            return support::Status::internal(
                std::string("registerKernelPool: installer threw: ")
                + e.what());
        }
        installers.push_back(std::move(installer));
        for (auto &w : workers)
            w->installersApplied = installers.size();
        installerCount.store(installers.size(),
                             std::memory_order_release);
        return support::Status();
    }
    // Workers are live: retain the installer; each worker applies it
    // on its own thread before its next job (applyPendingInstallers),
    // so the runtime is only ever touched by its worker.
    installers.push_back(std::move(installer));
    installerCount.store(installers.size(), std::memory_order_release);
    for (auto &w : workers)
        w->qcv.notify_all();
    return support::Status();
}

void
DispatchService::applyPendingInstallers(unsigned idx)
{
    Worker &w = *workers[idx];
    if (w.installersApplied
        == installerCount.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(poolMu);
    while (w.installersApplied < installers.size()) {
        try {
            installers[w.installersApplied](*w.rt);
        } catch (const std::exception &e) {
            emit(&w, event("pool.install_failed"), 0);
            support::warn("kernel-pool installer failed on %s: %s",
                          w.dev->name().c_str(), e.what());
        }
        ++w.installersApplied;
    }
}

BufferPool::Stats
DispatchService::poolStats(unsigned idx) const
{
    return workers.at(idx)->pool.stats();
}

DispatchService::ServiceHealth
DispatchService::health() const
{
    ServiceHealth out;
    out.running = started.load(std::memory_order_acquire);
    out.inFlight = inFlight.load(std::memory_order_acquire);
    out.devices.resize(workers.size());
    for (unsigned i = 0; i < workers.size(); ++i) {
        const Worker &w = *workers[i];
        DeviceHealth &d = out.devices[i];
        d.index = i;
        d.name = w.dev->name();
        d.fingerprint = w.fingerprint;
        d.load = w.load.load(std::memory_order_relaxed);
        d.clockNs = w.clockNs.load(std::memory_order_relaxed);
    }
    {
        // Breaker fields live under routeMu; taken once for all
        // devices, never together with a shard lock.
        std::lock_guard<std::mutex> lock(routeMu);
        for (unsigned i = 0; i < workers.size(); ++i) {
            const Worker &w = *workers[i];
            out.devices[i].breakerOpen = w.breakerOpen;
            out.devices[i].breakerCooldownLeft = w.breakerCooldownLeft;
            out.devices[i].consecFailures = w.consecFailures;
        }
    }
    for (unsigned i = 0; i < workers.size(); ++i) {
        Worker &w = *workers[i];
        std::lock_guard<std::mutex> lock(w.qmu);
        out.devices[i].queueDepth = w.queue.size();
    }
    return out;
}

std::string
DispatchService::flightDump(unsigned idx) const
{
    return workers.at(idx)->flight.dump();
}

void
DispatchService::start()
{
    if (started.load(std::memory_order_acquire))
        return;
    if (workers.empty())
        throw std::logic_error("DispatchService: start() with no devices");
    stopping.store(false, std::memory_order_release);
    {
        // Serialize against registerKernelPool(): an installer either
        // completes its inline application before workers exist or
        // sees started == true and defers to the workers.
        std::lock_guard<std::mutex> lock(poolMu);
        started.store(true, std::memory_order_release);
    }
    for (unsigned i = 0; i < workers.size(); ++i)
        workers[i]->thread = std::thread([this, i] { workerLoop(i); });
}

unsigned
DispatchService::route(const std::string &signature,
                       const std::vector<unsigned> &excluded)
{
    std::lock_guard<std::mutex> lock(routeMu);
    unsigned affinity = UINT_MAX;
    if (config.affinity) {
        auto it = affinityMap.find(signature);
        if (it != affinityMap.end())
            affinity = it->second;
    }
    // One pass ranks each device into a tier -- 2: admissible, 1: not
    // excluded but shedding behind an open breaker, 0: excluded -- and
    // keeps the first least-loaded device of each tier.  The pool is
    // the best non-empty tier: admissible devices, else the
    // non-excluded ones, else (everything excluded) all devices.
    // An open breaker sheds load for breakerCooldown routing
    // decisions; once the cooldown is spent the device becomes
    // eligible for exactly one probe job (the cooldown is re-armed
    // when the probe is placed, and the breaker closes or reopens on
    // the probe's result).
    unsigned best[3] = {UINT_MAX, UINT_MAX, UINT_MAX};
    std::uint64_t bestLoad[3] = {};
    int top = 0;
    int affinityTier = -1;
    for (unsigned i = 0; i < workers.size(); ++i) {
        Worker &w = *workers[i];
        int tier = 2;
        if (contains(excluded, i)) {
            tier = 0;
        } else if (w.breakerOpen && w.breakerCooldownLeft > 0) {
            w.breakerCooldownLeft--;
            tier = 1;
        }
        const std::uint64_t load = w.load.load(std::memory_order_relaxed);
        if (best[tier] == UINT_MAX || load < bestLoad[tier]) {
            best[tier] = i;
            bestLoad[tier] = load;
        }
        if (i == affinity)
            affinityTier = tier;
        top = std::max(top, tier);
    }
    const unsigned pick = affinityTier == top ? affinity : best[top];
    if (workers[pick]->breakerOpen)
        workers[pick]->breakerCooldownLeft = config.breakerCooldown;
    return pick;
}

void
DispatchService::breakerObserve(unsigned idx, bool deviceFault)
{
    std::lock_guard<std::mutex> lock(routeMu);
    Worker &w = *workers[idx];
    if (deviceFault) {
        w.consecFailures++;
        if (w.breakerOpen) {
            // The half-open probe failed: re-arm the cooldown.
            w.breakerCooldownLeft = config.breakerCooldown;
            emit(&w, event("breaker.reopens"), 0);
        } else if (w.consecFailures >= config.breakerThreshold) {
            w.breakerOpen = true;
            w.breakerCooldownLeft = config.breakerCooldown;
            emit(&w, event("breaker.trips"), 0);
            emit(&w, event("device.breaker_trips"), 0);
        }
    } else {
        w.consecFailures = 0;
        if (w.breakerOpen) {
            w.breakerOpen = false;
            w.breakerCooldownLeft = 0;
            emit(&w, event("breaker.closes"), 0);
        }
    }
}

void
DispatchService::enqueue(unsigned idx, detail::QueuedJob qj)
{
    Worker &w = *workers[idx];
    {
        std::lock_guard<std::mutex> lock(w.qmu);
        qj.enqueuedNs = w.clockNs.load(std::memory_order_relaxed);
        w.queue.push(std::move(qj));
    }
    w.load.fetch_add(1, std::memory_order_relaxed);
    w.qcv.notify_one();
}

void
DispatchService::jobDone()
{
    if (inFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(idleMu);
        idle.notify_all();
    }
}

std::vector<JobHandle>
DispatchService::submitMany(std::span<const JobSpec> specs)
{
    std::vector<JobHandle> handles(specs.size());
    submitMany(specs, handles);
    return handles;
}

void
DispatchService::submitMany(std::span<const JobSpec> specs,
                            std::span<JobHandle> out)
{
    if (!started.load(std::memory_order_acquire))
        throw std::logic_error("DispatchService: submit before start()");
    if (out.size() < specs.size())
        throw std::invalid_argument(
            "DispatchService: submitMany output span too small");
    if (specs.empty())
        return;

    // Route first, then visit each destination shard once.  The
    // scratch vector is thread-local so concurrent submitters don't
    // contend, and its capacity persists across calls -- steady
    // state allocates nothing on this thread.
    static thread_local std::vector<unsigned> routes;
    routes.clear();
    for (const JobSpec &spec : specs)
        routes.push_back(route(spec.job_.signature, kNoExclusions));
    emit(nullptr, event("jobs.submitted"), 0, specs.size());

    // Rejected jobs (shed on a full queue, or refused because the
    // service is stopping) are recorded here and completed only after
    // the routing loop is done with `routes`: a done callback runs
    // user code that may re-enter submitMany() on this thread and
    // clobber the thread-local scratch.  A plain local is fine --
    // it stays empty (no allocation) unless jobs are rejected, and
    // the rejection path already allocates for its status message.
    struct Rejected
    {
        std::size_t spec;
        unsigned shard;
        bool stopping;
    };
    std::vector<Rejected> rejected;

    for (unsigned widx = 0; widx < workers.size(); ++widx) {
        if (!contains(routes, widx))
            continue;
        Worker &w = *workers[widx];
        std::size_t pushed = 0;
        {
            std::unique_lock<std::mutex> lock(w.qmu);
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (routes[i] != widx)
                    continue;
                const std::uint64_t id =
                    nextId.fetch_add(1, std::memory_order_relaxed);
                if (config.maxQueueDepth > 0
                    && w.queue.size() >= config.maxQueueDepth) {
                    if (config.admission == AdmissionPolicy::Shed) {
                        // Hand out a completed handle; the result and
                        // callback are delivered after the routing
                        // loop.
                        out[i] = JobHandle(w.pool.acquireState(id));
                        rejected.push_back({i, widx, false});
                        continue;
                    }
                    // Backpressure: block the submitter until the
                    // shard has room (the worker notifies spaceCv on
                    // every pop and batch gather).
                    emit(&w, event("admission.blocked"), id);
                    const std::uint64_t t0 = wallNowNs();
                    w.spaceCv.wait(lock, [&] {
                        return w.queue.size() < config.maxQueueDepth
                               || stopping.load(
                                   std::memory_order_acquire);
                    });
                    observe(w, event("admission.block_ns"),
                            static_cast<double>(wallNowNs() - t0));
                    if (stopping.load(std::memory_order_acquire)) {
                        // Woken by stop(): the worker may already
                        // have seen an empty queue and exited, so a
                        // push now would strand the job -- and its
                        // inFlight count -- forever.  Refuse it.
                        out[i] = JobHandle(w.pool.acquireState(id));
                        rejected.push_back({i, widx, true});
                        continue;
                    }
                }
                auto state = w.pool.acquireState(id);
                detail::QueuedJob qj = w.pool.acquireShell();
                copySpecInto(specs[i], qj.job);
                qj.job.id = id;
                qj.state = state;
                qj.enqueuedNs =
                    w.clockNs.load(std::memory_order_relaxed);
                inFlight.fetch_add(1, std::memory_order_acq_rel);
                w.queue.push(std::move(qj));
                ++pushed;
                out[i] = JobHandle(std::move(state));
            }
        }
        if (pushed > 0) {
            w.load.fetch_add(pushed, std::memory_order_relaxed);
            w.qcv.notify_one();
        }
    }

    for (const Rejected &r : rejected) {
        Worker &w = *workers[r.shard];
        std::shared_ptr<detail::JobState> state = out[r.spec].state_;
        JobResult res;
        res.id = state->id;
        res.deviceIndex = r.shard;
        res.deviceName = w.dev->name();
        res.attempts = 0;
        if (r.stopping) {
            emit(&w, event("admission.stopped"), state->id);
            res.status = support::Status::unavailable(
                "job " + std::to_string(state->id)
                + " rejected: service stopping");
        } else {
            emit(&w, event("admission.shed"), state->id, 1,
                 {{"depth", std::to_string(config.maxQueueDepth)}});
            emit(&w, event("device.shed"), state->id);
            res.status = support::Status::resourceExhausted(
                "dispatch queue of " + devKey(r.shard) + " is full ("
                + std::to_string(config.maxQueueDepth) + " jobs); job "
                + std::to_string(state->id) + " shed");
        }
        if (specs[r.spec].job_.done)
            specs[r.spec].job_.done(res);
        publishDone(std::move(state), std::move(res));
    }
}

void
DispatchService::drain()
{
    std::unique_lock<std::mutex> lock(idleMu);
    idle.wait(lock, [this] {
        return inFlight.load(std::memory_order_acquire) == 0;
    });
}

void
DispatchService::stop()
{
    if (!started.load(std::memory_order_acquire))
        return;
    drain();
    stopping.store(true, std::memory_order_release);
    for (auto &w : workers) {
        {
            std::lock_guard<std::mutex> lock(w->qmu);
        }
        w->qcv.notify_all();
        w->spaceCv.notify_all();
    }
    for (auto &w : workers)
        if (w->thread.joinable())
            w->thread.join();
    started.store(false, std::memory_order_release);
}

bool
DispatchService::claim(unsigned idx, detail::QueuedJob &qj)
{
    Worker &w = *workers[idx];
    // A lost race means the job was cancelled while queued and the
    // handle already carries the Cancelled result; the done callback
    // still fires exactly once, here, and the job leaves the system.
    int expected = detail::JobState::Queued;
    if (!qj.state->phase.compare_exchange_strong(
            expected, detail::JobState::Running)) {
        emit(&w, event("jobs.cancelled"), qj.job.id);
        if (qj.job.done) {
            JobResult res;
            {
                std::lock_guard<std::mutex> lock(qj.state->mu);
                res = qj.state->result;
            }
            qj.job.done(res);
        }
        w.load.fetch_sub(1, std::memory_order_relaxed);
        jobDone();
        w.pool.releaseShell(std::move(qj));
        return false;
    }
    // The device is idle between jobs, so its clock is safe to read.
    if (tracer_.enabled()) {
        tracer_.complete(
            w.traceTrack, "queue", qj.enqueuedNs, w.dev->now(), qj.job.id,
            {{"signature", qj.job.signature},
             {"attempt", std::to_string(qj.attempt + 1)}});
    }
    return true;
}

void
DispatchService::workerLoop(unsigned idx)
{
    Worker &w = *workers[idx];
    currentWorker = &w;
    for (;;) {
        detail::QueuedJob qj;
        {
            std::unique_lock<std::mutex> lock(w.qmu);
            w.qcv.wait(lock, [&] {
                return stopping.load(std::memory_order_acquire)
                       || !w.queue.empty()
                       || w.installersApplied
                              != installerCount.load(
                                  std::memory_order_acquire);
            });
            if (w.queue.empty()) {
                if (stopping.load(std::memory_order_acquire))
                    return;
                // Woken to pick up a post-start kernel pool.
                lock.unlock();
                applyPendingInstallers(idx);
                continue;
            }
            qj = w.queue.pop();
        }
        // A slot freed: admit one blocked submitter.
        w.spaceCv.notify_one();

        applyPendingInstallers(idx);

        if (!claim(idx, qj))
            continue;
        emit(&w, event("claim"), qj.job.id, 1,
             {{"dev", w.dev->name()},
              {"attempt", std::to_string(qj.attempt + 1)}});

        // The job's first store read, shared by both paths: a batch
        // head that stays solo does not read the store again.
        Resolution r = readStore(w, qj.job);
        if (config.batch.enabled() && tryRunBatch(idx, qj, r))
            continue;

        JobResult res = runJob(idx, qj, std::move(r));
        completeSolo(idx, qj, std::move(res));
    }
}

bool
DispatchService::tryRunBatch(unsigned idx, detail::QueuedJob &head,
                             const Resolution &r)
{
    Worker &w = *workers[idx];
    if (!Batcher::eligible(head.job))
        return false;

    // Cold but worth profiling: run the head solo so its record lands
    // in the store; the compatible jobs still queued fuse behind that
    // record on the very next claim.
    if (!r.rec && profilable(head.job))
        return false;

    // Gather compatible members, topping up within the bounded-delay
    // window when the batch is under-full.  Every gather extracts
    // queued jobs without a pop, so it must wake submitters blocked
    // on admission control itself (notify_all: one gather can free
    // many slots) -- both to keep them from sleeping on an already
    // drained queue and to let them top the batch up mid-window.
    w.batchMembers.clear();
    {
        std::unique_lock<std::mutex> lock(w.qmu);
        // The window is an absolute deadline: any qcv wakeup (a new
        // job on the shard, an installer broadcast) re-gathers and
        // keeps waiting, so a single early notify cannot cut the
        // accumulation window short.  A timed-out wait gathers once
        // more before the batch closes.
        const auto deadline =
            std::chrono::steady_clock::now()
            + std::chrono::nanoseconds(config.batch.windowNs);
        bool windowOpen = config.batch.windowNs > 0;
        for (;;) {
            if (batcher.gather(w.queue, head.job, w.batchMembers) > 0)
                w.spaceCv.notify_all();
            if (!windowOpen
                || w.batchMembers.size() + 1 >= config.batch.maxJobs)
                break;
            windowOpen = w.qcv.wait_until(lock, deadline)
                         != std::cv_status::timeout;
        }
    }

    // Claim every member; one that lost to cancel() finishes here
    // with its exactly-once callback, without disturbing the batch.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < w.batchMembers.size(); ++i) {
        detail::QueuedJob &m = w.batchMembers[i];
        if (!claim(idx, m))
            continue;
        if (i != kept)
            w.batchMembers[kept] = std::move(m);
        ++kept;
    }
    w.batchMembers.resize(kept);
    if (w.batchMembers.empty())
        return false; // nothing fused: head runs solo

    // Head leads the batch at index 0.
    w.batchMembers.push_back(std::move(head));
    std::swap(w.batchMembers.front(), w.batchMembers.back());

    runBatch(idx, r.rec);
    return true;
}

void
DispatchService::runBatch(unsigned idx,
                          const std::optional<store::SelectionRecord> &rec)
{
    Worker &w = *workers[idx];
    std::vector<detail::QueuedJob> &members = w.batchMembers;
    detail::QueuedJob &head = members.front();
    // The completion loop below releases each member's shell as it
    // goes -- the head's first -- so snapshot the leader id up front.
    const std::uint64_t headId = head.job.id;
    const std::string &sig = head.job.signature;
    const std::size_t n = members.size();
    const bool warm = rec.has_value();
    const int variant =
        warm ? variantIndex(*w.rt, sig, rec->selectedName, rec->selected)
             : -1;

    w.batchSlices.clear();
    std::uint64_t totalUnits = 0;
    for (detail::QueuedJob &m : members) {
        w.batchSlices.push_back(
            {&m.job.args, m.job.units, m.job.id});
        totalUnits += m.job.units;
    }

    runtime::LaunchOptions opt = head.job.opt;
    opt.correlationId = head.job.id;
    opt.profiling = false;

    emit(&w, event("batch.gather"), headId, 1,
         {{"signature", sig},
          {"jobs", std::to_string(n)},
          {"units", std::to_string(totalUnits)},
          {"warm", warm ? "yes" : "no"}});

    const sim::TimeNs before = w.dev->now();
    runtime::LaunchReport report;
    const support::Status st =
        w.rt->launchFused(sig, variant, w.batchSlices, opt, report);
    const sim::TimeNs elapsed = w.dev->now() - before;
    w.clockNs.store(w.dev->now(), std::memory_order_relaxed);
    const sim::TimeNs share = elapsed / n;

    if (!st.ok()) {
        // The fused launch failed as a whole: demote every member to
        // solo re-execution instead of failing the batch.  The
        // failure was the batch's, so no attempt is consumed; a
        // persistently faulty job then flows through the normal
        // per-job retry machinery on its solo runs.
        const support::StatusCode code = st.code();
        breakerObserve(idx, isDeviceFault(code));
        emit(&w, event("batch.demoted"), headId, n,
             {{"signature", sig},
              {"jobs", std::to_string(n)},
              {"code", support::statusCodeName(code)}});
        {
            std::lock_guard<std::mutex> lock(w.qmu);
            for (detail::QueuedJob &m : members) {
                m.job.noBatch = true;
                m.spentNs += share;
                m.enqueuedNs =
                    w.clockNs.load(std::memory_order_relaxed);
                // Back to Queued: cancel() can still win the next
                // claim race.
                m.state->phase.store(detail::JobState::Queued,
                                     std::memory_order_release);
                w.queue.push(std::move(m));
            }
        }
        // Members stayed on this shard, so w.load is already right;
        // the worker loops straight back into the queue.
        members.clear();
        return;
    }

    // Success: one fused launch served n jobs.
    emit(&w, event("batch.launches"), headId);
    emit(&w, event("batch.jobs"), headId, n);
    observe(w, event("batch.size"), static_cast<double>(n));
    if (warm)
        store_.noteServed(sig, w.fingerprint, head.job.units, n);
    // Sub-threshold jobs never produce a record; they still count as
    // misses so hit-rate accounting matches the solo path.
    const bool hit = warm && importWarm(w, sig, *rec).ok();
    countStoreRead(w, members, hit ? &*rec : nullptr);
    breakerObserve(idx, false);
    if (config.affinity && warm) {
        std::lock_guard<std::mutex> lock(routeMu);
        affinityMap[sig] = idx;
    }

    for (detail::QueuedJob &m : members) {
        JobResult res;
        res.id = m.job.id;
        res.deviceIndex = idx;
        res.deviceName = w.dev->name();
        res.warmStart = warm;
        res.batchedWith = headId;
        res.report = report;
        res.report.totalUnits = m.job.units; // the member's own view
        res.deviceTimeNs = share;
        res.attempts = m.attempt + 1;
        res.backoffNs = m.backoffNs;
        m.spentNs += share;
        complete(idx, m, std::move(res), false);
    }
    members.clear();
}

void
DispatchService::completeSolo(unsigned idx, detail::QueuedJob &qj,
                              JobResult res)
{
    Worker &w = *workers[idx];
    res.attempts = qj.attempt + 1;
    res.backoffNs = qj.backoffNs;
    qj.spentNs += res.deviceTimeNs;
    w.clockNs.store(w.dev->now(), std::memory_order_relaxed);

    const support::StatusCode launchCode = res.status.code();
    if (launchCode == support::StatusCode::DeadlineExceeded) {
        // A hung device timed the attempt out.
        emit(&w, event("recover.timeouts"), qj.job.id);
    }

    bool retry = false;
    sim::TimeNs backoff = 0;
    if (!res.ok() && retryableCode(launchCode)
        && res.attempts < config.maxAttempts) {
        backoff = config.backoffBaseNs << (res.attempts - 1);
        if (qj.job.deadlineNs == 0
            || qj.spentNs + qj.backoffNs + backoff
                   < qj.job.deadlineNs) {
            retry = true;
        } else {
            res.status = support::Status::deadlineExceeded(
                "job " + std::to_string(qj.job.id)
                + " out of retry budget: " + res.status.message());
            emit(&w, event("recover.timeouts"), qj.job.id);
        }
    }
    breakerObserve(idx, isDeviceFault(launchCode));

    if (!retry) {
        const bool pin = res.report.profiled || res.report.fromCache;
        complete(idx, qj, std::move(res), pin);
        return;
    }
    // Back to Queued so the next worker can claim it (and a cancel()
    // between attempts still wins the race).
    qj.state->phase.store(detail::JobState::Queued,
                          std::memory_order_release);
    qj.attempt = res.attempts;
    qj.excluded.push_back(idx);
    qj.backoffNs += backoff;
    // Once every device has failed the job, routing starts afresh.
    const unsigned target = route(
        qj.job.signature,
        qj.excluded.size() >= workers.size() ? kNoExclusions
                                             : qj.excluded);
    emit(&w, event("recover.retries"), qj.job.id, 1,
         {{"from", devKey(idx)},
          {"to", devKey(target)},
          {"attempt", std::to_string(qj.attempt + 1)},
          {"code", support::statusCodeName(launchCode)}});
    emit(&w, event("device.retries_out"), qj.job.id);
    // Retries bypass admission: the job is already admitted, and a
    // worker thread must never block on a full shard.
    enqueue(target, std::move(qj));
    w.load.fetch_sub(1, std::memory_order_relaxed);
}

void
DispatchService::complete(unsigned idx, detail::QueuedJob &qj,
                          JobResult res, bool pinAffinity)
{
    Worker &w = *workers[idx];
    if (res.ok()) {
        // The launch succeeded: the device served it, even when the
        // job then turns out to have overrun its deadline.
        const auto deviceNs = static_cast<double>(res.deviceTimeNs);
        emit(&w, event("device.jobs"), qj.job.id);
        observe(w, event("job.device_ns"), deviceNs);
        observe(w, event("device.latency_ns"), deviceNs);
        if (res.report.profiled)
            emit(&w, event("device.profiled"), qj.job.id);
    }
    // Job-level deadline: device time plus charged backoff.
    if (res.ok() && qj.job.deadlineNs != 0
        && qj.spentNs + qj.backoffNs > qj.job.deadlineNs) {
        res.status = support::Status::deadlineExceeded(
            "job " + std::to_string(qj.job.id)
            + " exceeded its deadline");
        emit(&w, event("recover.timeouts"), qj.job.id);
    }

    const bool succeeded = res.ok();
    if (config.affinity && pinAffinity && succeeded) {
        // Insert-or-re-pin: after a re-routed retry the signature
        // sticks to the device that worked.
        std::lock_guard<std::mutex> lock(routeMu);
        affinityMap[qj.job.signature] = idx;
    }
    observe(w, event("job.attempts"), static_cast<double>(res.attempts));
    if (res.backoffNs > 0)
        observe(w, event("job.backoff_ns"),
                static_cast<double>(res.backoffNs));
    if (succeeded) {
        emit(&w, event("jobs.completed"), qj.job.id);
    } else {
        // Attach the worker's flight-recorder dump to the failure
        // so the caller sees the device's last phases post-mortem.
        emit(&w, event("jobs.failed"), qj.job.id, 1,
             {{"dev", w.dev->name()}, {"status", res.status.toString()}});
        res.status.withPayload(w.flight.dump());
    }

    // The callback runs before the handle reports Done: once a
    // waiter wakes from result() the job -- callback included -- is
    // truly finished, and the caller may tear its captures down.
    if (qj.job.done)
        qj.job.done(res);
    // Return the shell before a waiter can see Done, so a waiter that
    // resubmits at once finds it back in the pool rather than minting
    // a fresh one.  The state reference moves out of the shell first:
    // while this thread holds it, acquireState() cannot recycle the
    // block, even when the handle was discarded.
    std::shared_ptr<detail::JobState> state = std::move(qj.state);
    w.pool.releaseShell(std::move(qj));
    publishDone(std::move(state), std::move(res));
    w.load.fetch_sub(1, std::memory_order_relaxed);
    jobDone();
}

JobResult
DispatchService::runJob(unsigned idx, detail::QueuedJob &qj, Resolution r)
{
    Worker &w = *workers[idx];
    Job &job = qj.job;
    JobResult res;
    res.id = job.id;
    res.deviceIndex = idx;
    res.deviceName = w.dev->name();

    // Events fired from inside the store and runtime calls below
    // (observers) belong to this job.
    w.currentJob = job.id;

    emit(&w, event("register"), job.id, 1, {{"sig", job.signature}});
    try {
        if (job.ensureRegistered)
            job.ensureRegistered(*w.rt);
    } catch (const std::exception &e) {
        res.status = support::Status::internal(
            std::string("ensureRegistered: ") + e.what());
        return res;
    }

    if (w.rt->guard().enabled()) {
        // Seed the runtime's guard with the store's blacklist for
        // this (signature, device): entries loaded from disk must
        // keep excluding their variants after a restart.
        for (const auto &[variant, reason] :
             store_.blacklistedVariants(job.signature, w.fingerprint))
            w.rt->guard().blacklist(job.signature, variant, reason);
    }

    resolve(w, job, r);
    res.predicted = r.predicted;
    res.coalescedWith = r.coalescedWith;

    runtime::LaunchOptions opt = job.opt;
    // The job id doubles as the trace correlation id: every span the
    // runtime emits for this launch carries it.
    opt.correlationId = job.id;
    if (r.rec) {
        // Warm start: run the stored winner, skip profiling.
        if (auto st = importWarm(w, job.signature, *r.rec); !st.ok()) {
            res.status = std::move(st);
            return res;
        }
        opt.profiling = false;
        res.warmStart = true;
    }
    // A miss profiles unless the caller turned profiling off.  Either
    // way the job's store read counts once, on its first attempt.
    countStoreRead(w, {&qj, 1}, r.rec ? &*r.rec : nullptr);

    emit(&w, event("launch"), job.id, 1,
         {{"sig", job.signature}, {"units", std::to_string(job.units)}});
    const sim::TimeNs before = w.dev->now();
    res.status =
        w.rt->launch(job.signature, job.units, job.args, opt,
                     res.report);
    res.deviceTimeNs = w.dev->now() - before;

    if (res.ok()) {
        // Selection-quality audit: a sampled warm hit is followed by
        // a shadow probe of winner vs runner-up, here -- while the
        // job's buffers are still alive -- and before completion, so
        // the probe time is never charged to the job's latency.
        // Only a record with a measured runner-up qualifies; predicted
        // records carry no profiles, so they are excluded naturally.
        const auto measured = [](const store::StoredProfile &p) {
            return p.measured();
        };
        if (auditor_ && res.warmStart && !res.report.profiled
            && std::count_if(r.rec->profiles.begin(),
                             r.rec->profiles.end(), measured) >= 2
            && auditor_->shouldSample())
            auditWarmHit(idx, qj, *r.rec);
    } else if (res.warmStart
               && retryableCode(res.status.code())) {
        // The stored selection failed to even launch: demote it so
        // the next lookup serves the runner-up (or re-profiles).
        noteObservation(w,
                        store_.reportFailure(job.signature, w.fingerprint,
                                             job.units),
                        job.signature);
    }
    // The coalesce lease (when held) releases with @p r as this
    // returns: the profiled record is in the store -- or the attempt
    // failed and a follower takes over.
    return res;
}

bool
DispatchService::profilable(const Job &job) const
{
    return job.units >= config.runtime.minUnitsForProfiling
           && job.opt.profiling;
}

DispatchService::Resolution
DispatchService::readStore(Worker &w, const Job &job)
{
    Resolution r;
    r.rec = store_.lookup(job.signature, w.fingerprint, job.units);
    if (r.rec && blacklisted(w, job.signature, r.rec->selectedName)) {
        // A winner blacklisted after it was stored (on a peer worker,
        // or before a restart) is a miss: the key re-profiles.
        emit(&w, event("guard.blocked_warmstart"), job.id, 1,
             {{"variant", r.rec->selectedName}});
        r.rec.reset();
    }
    return r;
}

std::optional<store::SelectionRecord>
DispatchService::storedWinner(const Worker &w, const Job &job) const
{
    auto rec = store_.lookup(job.signature, w.fingerprint, job.units);
    if (rec && blacklisted(w, job.signature, rec->selectedName))
        rec.reset();
    return rec;
}

void
DispatchService::resolve(Worker &w, const Job &job, Resolution &r)
{
    if (r.rec || !profilable(job))
        return;

    // Fleet federation (DESIGN §13): warm means the key's owner
    // profiled it and its record is in our store now; otherwise this
    // replica profiles, behind the predictor and the coalescer.
    if (fed_) {
        const auto rs =
            fed_->resolveCold(job.signature, w.fingerprint, job.units);
        if (rs.warm && (r.rec = storedWinner(w, job))) {
            // owner_cid is the profiling pass's correlation id on the
            // owner replica: it lines this instant up with the remote
            // profile spans in the owner's trace file.
            emit(&w, event("fed.warm_hit"), job.id, 1,
                 {{"owner_cid", std::to_string(r.rec->profileCid)},
                  {"owner_replica", std::to_string(r.rec->profileOrigin)},
                  {"waited_ms", std::to_string(rs.waitedMs)}});
        }
    }

    // Learned selection, for a key the store has no record of (an
    // invalidated key wants a profile): a confident prediction seeds
    // the store and the job runs warm with zero profiled units; drift
    // and the guard demote a bad one back to a forced profile.
    if (!r.rec && predictor_
        && !store_.known(job.signature, w.fingerprint, job.units)) {
        if (const auto *info = w.rt->findKernelInfo(job.signature))
            predictor_->noteKernel(job.signature, *info);
        const auto pred = predictor_->predict(
            store_, job.signature, w.fingerprint,
            store::bucketOf(job.units));
        if (pred && pred->confidence >= predictor_->config().threshold) {
            // Resolve the predicted variant by name; an unknown or
            // blacklisted variant voids the prediction.
            const int variant =
                variantIndex(*w.rt, job.signature, pred->variant);
            if (variant >= 0
                && !blacklisted(w, job.signature, pred->variant)) {
                store_.seedPrediction(job.signature, w.fingerprint,
                                      job.units, variant,
                                      pred->variant,
                                      pred->confidence);
                r.rec = storedWinner(w, job);
            }
        }
        if (r.rec) {
            r.predicted = true;
            emit(&w, event("predict.hit"), job.id, 1,
                 {{"variant", pred->variant},
                  {"confidence", fixedStr(pred->confidence, 3)},
                  {"source", predict::sourceName(pred->source)},
                  {"distance", std::to_string(pred->distance)}});
        } else {
            emit(&w, event("predict.miss"), job.id, 1,
                 {{"confidence",
                   pred ? fixedStr(pred->confidence, 3) : "none"}});
        }
    }

    // Profiling coalescing: a miss bids for leadership of its
    // (signature, fingerprint, bucket).  Losers wait for the leader's
    // record and ride it warm; a leader that failed to record hands
    // leadership to one of its followers.
    if (!config.coalesce)
        return;
    const std::string ckey = ProfileCoalescer::key(
        job.signature, w.fingerprint, store::bucketOf(job.units));
    while (!r.rec) {
        const auto ticket = coalescer.acquire(ckey, job.id);
        if (ticket.leader) {
            r.lease = CoalesceLease(coalescer, ckey);
            // The previous leader may have recorded and released the
            // key since this job's store read: re-check first.
            if ((r.rec = storedWinner(w, job)))
                r.lease = CoalesceLease(); // nothing to profile
            else
                emit(&w, event("coalesce.leader"), job.id);
            return;
        }
        const std::string leader = std::to_string(ticket.leaderId);
        emit(&w, event("coalesce.follower"), job.id, 1,
             {{"leader", leader}, {"signature", job.signature}});
        coalescer.awaitRelease(ckey);
        if ((r.rec = storedWinner(w, job))) {
            r.coalescedWith = ticket.leaderId;
            emit(&w, event("coalesce.hit"), job.id, 1,
                 {{"leader", leader}, {"variant", r.rec->selectedName}});
        } else {
            // The leader released without recording (fault, guard
            // storm): bid again -- one follower becomes the new
            // leader, the rest keep waiting.
            emit(&w, event("coalesce.leader_failed"), job.id);
        }
    }
}

support::Status
DispatchService::importWarm(Worker &w, const std::string &sig,
                            const store::SelectionRecord &rec)
{
    return w.rt->tryImportSelection(
        sig, variantIndex(*w.rt, sig, rec.selectedName, rec.selected));
}

void
DispatchService::countStoreRead(Worker &w,
                                std::span<detail::QueuedJob> jobs,
                                const store::SelectionRecord *hit)
{
    std::uint64_t fresh = 0;
    for (detail::QueuedJob &qj : jobs)
        fresh += !std::exchange(qj.storeCounted, true);
    if (fresh == 0)
        return;
    const std::uint64_t id = jobs.front().job.id;
    if (hit) {
        emit(&w, event("store.hit"), id, fresh,
             {{"variant", hit->selectedName}});
        emit(&w, event("device.store_hits"), id, fresh);
    } else {
        emit(&w, event("store.miss"), id, fresh);
    }
}

bool
DispatchService::blacklisted(const Worker &w, const std::string &sig,
                             const std::string &variant) const
{
    return w.rt->guard().enabled()
           && store_.isBlacklisted(sig, variant, w.fingerprint);
}

void
DispatchService::noteObservation(Worker &w, store::Observation obs,
                                 const std::string &signature)
{
    switch (obs) {
      case store::Observation::Quarantined:
        emit(&w, event("store.quarantine"), w.currentJob, 1,
             {{"signature", signature}});
        break;
      case store::Observation::Invalidated:
        emit(&w, event("store.drift_invalidation"), w.currentJob);
        break;
      case store::Observation::Ok:
        break;
    }
}

void
DispatchService::auditWarmHit(unsigned idx, const detail::QueuedJob &qj,
                              const store::SelectionRecord &rec)
{
    Worker &w = *workers[idx];
    const Job &job = qj.job;

    // The stored runner-up: the best per-unit profiled variant that
    // is not the served winner -- the same fallback quarantine would
    // serve -- skipping blacklisted variants.
    const std::string &winner = rec.selectedName;
    std::string runnerUp;
    double bestUnitNs = 0;
    for (const auto &p : rec.profiles) {
        if (p.name == winner || !p.measured())
            continue;
        if (blacklisted(w, job.signature, p.name))
            continue;
        const double unitNs =
            p.metricNs / static_cast<double>(p.units);
        if (runnerUp.empty() || unitNs < bestUnitNs) {
            runnerUp = p.name;
            bestUnitNs = unitNs;
        }
    }
    auto probeFailed = [&] {
        emit(&w, event("audit.probe_failed"), job.id, 1,
             {{"signature", job.signature}});
    };
    const int winIdx = variantIndex(*w.rt, job.signature, winner);
    const int runIdx =
        runnerUp.empty() ? -1 : variantIndex(*w.rt, job.signature, runnerUp);
    if (winIdx < 0 || runIdx < 0) {
        // A sampled hit whose probe pair cannot even be resolved
        // (stale record, re-registration): account it as a failed
        // probe so the sampling stride stays observable.
        auditor_->noteProbeFailure();
        probeFailed();
        return;
    }

    const std::uint64_t probeUnits =
        config.audit.probeUnits(job.units);
    emit(&w, event("audit.probe"), job.id, 1,
         {{"winner", winner},
          {"runner_up", runnerUp},
          {"units", std::to_string(probeUnits)}});

    // Both variants run the same forced-variant shadow slice over the
    // job's own (still live) buffers: equal slices make the per-unit
    // comparison fair, and LaunchReport::shadow keeps the probes out
    // of the store's drift baseline.
    auto probe = [&](int variant, double &unitNs) {
        runtime::LaunchOptions popt;
        popt.profiling = false;
        popt.shadow = true;
        popt.initialVariant = variant;
        popt.correlationId = job.id;
        runtime::LaunchReport rep;
        const support::Status st = w.rt->launch(
            job.signature, probeUnits, job.args, popt, rep);
        if (!st.ok())
            return false;
        unitNs = static_cast<double>(rep.endTime - rep.startTime)
                 / static_cast<double>(probeUnits);
        return unitNs > 0;
    };
    double winUnitNs = 0;
    double runUnitNs = 0;
    if (!probe(winIdx, winUnitNs) || !probe(runIdx, runUnitNs)) {
        auditor_->noteProbeFailure();
        probeFailed();
        return;
    }

    obs::AuditSample sample;
    sample.signature = job.signature;
    sample.device = w.fingerprint;
    sample.units = job.units;
    sample.winner = winner;
    sample.runnerUp = runnerUp;
    sample.winnerUnitNs = winUnitNs;
    sample.runnerUpUnitNs = runUnitNs;
    const obs::AuditVerdict v = auditor_->ingest(sample);
    if (v.probeFailed) {
        probeFailed();
        return;
    }
    const std::string ema = fixedStr(v.keyEma, 4);
    emit(&w, event("audit.samples"), job.id, 1,
         {{"signature", job.signature},
          {"winner", winner},
          {"runner_up", runnerUp},
          {"regret", fixedStr(v.regret, 4)},
          {"ema", ema}});
    observe(w, event("audit.regret_pct"), v.regret * 100.0);
    if (v.demoted) {
        emit(&w, event("audit.demotions"), job.id, 1,
             {{"signature", job.signature},
              {"winner", winner},
              {"runner_up", runnerUp},
              {"ema", ema},
              {"observation", store::observationName(v.observation)}});
    }
}

void
DispatchService::emit(Worker *w, Event e, std::uint64_t jobId,
                      std::uint64_t count, EventAttrs attrs)
{
    const auto i = static_cast<std::size_t>(e);
    const EventRow &row = eventTable[i];
    if (support::Counter *c =
            (row.perDevice ? w->handles : handles_)[i].counter)
        c->inc(count);
    if (!w || (!row.instant && !row.flight))
        return;
    // The device clock belongs to the worker thread; anyone else (a
    // submitter) reads the snapshot the worker published.
    const sim::TimeNs now = currentWorker == w
                                ? w->dev->now()
                                : w->clockNs.load(std::memory_order_relaxed);
    if (row.instant && tracer_.enabled())
        tracer_.instant(w->traceTrack, row.instant, now, jobId,
                        support::tracing::Attrs(attrs.begin(), attrs.end()));
    if (row.flight) {
        // Reused per thread: rendering the detail does not allocate.
        static thread_local std::string detail;
        detail.clear();
        for (const auto &[key, value] : attrs) {
            if (!detail.empty())
                detail += ' ';
            detail.append(key).append("=").append(value);
        }
        w->flight.record(now, jobId, row.flight, detail);
    }
}

void
DispatchService::resolveHandles(EventHandles &out, const std::string &device)
{
    for (std::size_t i = 0; i < eventCount; ++i) {
        const EventRow &row = eventTable[i];
        if (row.perDevice == device.empty())
            continue;
        // Per-device families share one name plus a device label
        // (DESIGN §7), e.g. `device.jobs{device="dev0"}`.
        const std::string name =
            device.empty() ? std::string(row.name)
                           : support::MetricsRegistry::labeled(
                                 row.name, "device", device);
        if (row.kind == MetricKind::Counter)
            out[i].counter = &reg.counter(name, row.help);
        else if (row.kind == MetricKind::Histogram)
            out[i].histogram = &reg.histogram(name, row.help);
    }
}

void
DispatchService::observe(Worker &w, Event e, double value)
{
    const auto i = static_cast<std::size_t>(e);
    (eventTable[i].perDevice ? w.handles : handles_)[i].histogram->observe(
        value);
}

} // namespace serve
} // namespace dysel
