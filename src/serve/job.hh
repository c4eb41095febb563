/**
 * @file
 * Job types of the dispatch service: the completion record, the
 * submission spec, the caller-side handle, and the internal queued-job
 * shell the buffer pool recycles.
 *
 * The public submission surface is JobSpec + DispatchService::
 * submitMany() (DESIGN §10); the raw Job struct is the storage type
 * behind JobSpec.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dysel/options.hh"
#include "dysel/report.hh"
#include "dysel/runtime.hh"
#include "kdp/args.hh"
#include "sim/time.hh"
#include "support/status.hh"

namespace dysel {
namespace serve {

class DispatchService;

/** Completion record of one job. */
struct JobResult
{
    std::uint64_t id = 0;
    /** Ok, or why the job ultimately failed. */
    support::Status status;
    bool ok() const { return status.ok(); }

    unsigned deviceIndex = 0;
    std::string deviceName;
    /** Selection came from the persistent store (no profiling ran). */
    bool warmStart = false;
    /**
     * The selection was seeded by the predictor (learned selection):
     * the job ran warm without any profiling pass ever having covered
     * its (signature, device, bucket) key.
     */
    bool predicted = false;
    /**
     * Job id of the profiling leader this job coalesced behind
     * (0 = the job did not ride another job's profiling pass).
     */
    std::uint64_t coalescedWith = 0;
    /**
     * Job id of the batch leader this job fused with (0 = the job ran
     * solo).  The leader's own result carries its own id here.
     */
    std::uint64_t batchedWith = 0;
    runtime::LaunchReport report;
    /** Virtual device time the last attempt consumed (a fused
     * launch's elapsed time is split evenly across its members). */
    sim::TimeNs deviceTimeNs = 0;

    /** Attempts the job took (1 = no retries). */
    unsigned attempts = 1;
    /** Total virtual backoff charged across retries. */
    sim::TimeNs backoffNs = 0;
};

/**
 * One launch job: the storage form behind JobSpec (build a JobSpec and
 * submit it with DispatchService::submitMany()).
 */
struct Job
{
    std::string signature;
    std::uint64_t units = 0;
    kdp::KernelArgs args;
    runtime::LaunchOptions opt;

    /**
     * Ensures the job's kernel pool is registered on the runtime it
     * lands on (called from the worker thread before the launch).
     * Prefer DispatchService::registerKernelPool() -- jobs carrying
     * their own installer are excluded from batching.
     */
    std::function<void(runtime::Runtime &)> ensureRegistered;

    /**
     * Optional completion callback, fired exactly once per job on
     * every terminal path: on the worker thread for jobs that ran
     * (or were discarded after a cancel), on the submitter's own
     * thread for a job shed by admission control.  JobHandle::wait()
     * / result() cover the common case.  On the allocation-free hot
     * path keep captures within std::function's inline buffer (a
     * single pointer) -- larger captures heap-allocate per submit.
     */
    std::function<void(const JobResult &)> done;

    /**
     * Virtual-time budget (device time + charged backoff) across all
     * attempts; 0 disables the deadline.  A job that exhausts it
     * fails with DeadlineExceeded instead of retrying further.
     */
    sim::TimeNs deadlineNs = 0;

    /** Exclude this job from batch fusion (solo execution only). */
    bool noBatch = false;

    /** Assigned by submitMany(). */
    std::uint64_t id = 0;
};

/**
 * Builder-style submission spec, the stable public surface.  A spec
 * is reusable: submitMany() copies it into pooled storage, so a
 * submitter can hold a fixed array of specs and resubmit them every
 * iteration without reallocating (string/vector capacities in the
 * pool are reused across jobs).
 *
 *     JobSpec spec;
 *     spec.signature("saxpy").units(4096).args(args);
 *     auto handle = svc.submitMany({&spec, 1})[0];
 */
class JobSpec
{
  public:
    JobSpec() = default;

    JobSpec &
    signature(std::string sig)
    {
        job_.signature = std::move(sig);
        return *this;
    }

    JobSpec &
    units(std::uint64_t n)
    {
        job_.units = n;
        return *this;
    }

    /** The argument list; copied into the job. */
    JobSpec &
    args(kdp::KernelArgs a)
    {
        job_.args = std::move(a);
        return *this;
    }

    /** Mutable access for in-place arg rebuilding across reuses. */
    kdp::KernelArgs &mutableArgs() { return job_.args; }

    JobSpec &
    options(runtime::LaunchOptions opt)
    {
        job_.opt = opt;
        return *this;
    }

    /**
     * Per-job kernel installer (prefer registerKernelPool()); a spec
     * carrying one is excluded from batch fusion.
     */
    JobSpec &
    ensureRegistered(std::function<void(runtime::Runtime &)> fn)
    {
        job_.ensureRegistered = std::move(fn);
        return *this;
    }

    /** Completion callback (see Job::done for the exactly-once
     * contract and the allocation note). */
    JobSpec &
    onDone(std::function<void(const JobResult &)> fn)
    {
        job_.done = std::move(fn);
        return *this;
    }

    /** Virtual-time deadline across all attempts; 0 = none. */
    JobSpec &
    deadline(sim::TimeNs ns)
    {
        job_.deadlineNs = ns;
        return *this;
    }

    /** Exclude this job from batch fusion. */
    JobSpec &
    noBatch(bool exclude = true)
    {
        job_.noBatch = exclude;
        return *this;
    }

    /** The spec's storage form (observation). */
    const Job &job() const { return job_; }

  private:
    friend class DispatchService;
    Job job_;
};

namespace detail {

/** Shared completion state behind a JobHandle. */
struct JobState
{
    enum Phase { Queued = 0, Running = 1, Done = 2, Cancelled = 3 };

    std::uint64_t id = 0;
    std::atomic<int> phase{Queued};
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    JobResult result; ///< valid once phase is Done or Cancelled
};

/**
 * A job in flight, with its retry state.  The shell -- the strings,
 * vectors, and argument slots -- is recycled through the worker
 * shard's BufferPool, so steady-state submission reuses capacity
 * instead of allocating.
 */
struct QueuedJob
{
    Job job;
    std::shared_ptr<JobState> state;
    unsigned attempt = 0; ///< failed attempts so far
    std::vector<unsigned> excluded; ///< devices that failed it
    sim::TimeNs backoffNs = 0; ///< charged virtual backoff
    sim::TimeNs spentNs = 0; ///< device time across attempts
    /** Destination device's clock when (re-)enqueued (queue span). */
    sim::TimeNs enqueuedNs = 0;
    /** store.hit or store.miss counted this job (once per job). */
    bool storeCounted = false;
};

} // namespace detail

/**
 * Caller-side handle of a submitted job: wait for it, read its
 * result, or cancel it while it is still queued.  Copyable; all
 * copies refer to the same job.  A default-constructed handle is
 * empty.
 */
class JobHandle
{
  public:
    JobHandle() = default;
    JobHandle(const JobHandle &) = default;
    JobHandle(JobHandle &&) noexcept = default;

    /**
     * Dropping a reference passes through the state's mutex first:
     * the pool recycles a completion block in place as soon as only
     * it holds a reference, and the lock hand-off is what orders this
     * holder's unlocked result() reads before that reset (the
     * refcount alone carries no such edge).
     */
    ~JobHandle() { release(); }

    JobHandle &
    operator=(const JobHandle &other)
    {
        if (this != &other) {
            release();
            state_ = other.state_;
        }
        return *this;
    }

    JobHandle &
    operator=(JobHandle &&other) noexcept
    {
        if (this != &other) {
            release();
            state_ = std::move(other.state_);
        }
        return *this;
    }

    /** Whether the handle refers to a job. */
    bool valid() const { return static_cast<bool>(state_); }

    /** The job id assigned by submitMany(). */
    std::uint64_t id() const { return state_ ? state_->id : 0; }

    /** Whether the job has finished (done or cancelled). */
    bool done() const;

    /** Block until the job is done or cancelled. */
    void wait() const;

    /**
     * Block until completion, then the final JobResult.  A cancelled
     * job's result carries StatusCode::Cancelled; a job shed by
     * admission control carries StatusCode::ResourceExhausted.  The
     * reference is only valid while this handle (or a copy) is alive
     * -- don't bind it off a temporary handle.
     */
    const JobResult &result() const;

    /**
     * Withdraw the job if it has not started running.  Returns true
     * on success (the job will never run; its result is Cancelled);
     * false once the job is running or finished.  Cancelling a
     * queued duplicate never disturbs the profiling leader it would
     * have coalesced behind -- jobs attach to a leader only once
     * running.
     */
    bool cancel();

  private:
    friend class DispatchService;
    explicit JobHandle(std::shared_ptr<detail::JobState> state)
        : state_(std::move(state))
    {}

    void
    release()
    {
        if (!state_)
            return;
        // See ~JobHandle(): the empty critical section publishes this
        // thread's reads of the result to whoever locks st.mu next --
        // in particular BufferPool::acquireState(), which resets the
        // block under the same mutex once the refcount says only the
        // pool is left.
        { std::lock_guard<std::mutex> lock(state_->mu); }
        state_.reset();
    }

    std::shared_ptr<detail::JobState> state_;
};

} // namespace serve
} // namespace dysel
