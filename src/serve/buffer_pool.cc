#include "buffer_pool.hh"

#include <utility>

namespace dysel {
namespace serve {

void
clearJobResult(JobResult &r)
{
    r.id = 0;
    r.status = support::Status();
    r.deviceIndex = 0;
    r.deviceName.clear();
    r.warmStart = false;
    r.predicted = false;
    r.coalescedWith = 0;
    r.batchedWith = 0;
    r.deviceTimeNs = 0;
    r.attempts = 1;
    r.backoffNs = 0;

    runtime::LaunchReport &rep = r.report;
    rep.signature.clear();
    rep.selected = -1;
    rep.selectedName.clear();
    rep.profiled = false;
    rep.fromCache = false;
    rep.mode = runtime::ProfilingMode::Fully;
    rep.orch = runtime::Orchestration::Sync;
    rep.fused = false;
    rep.fusedJobs = 0;
    rep.startTime = 0;
    rep.endTime = 0;
    rep.totalUnits = 0;
    rep.profiledUnits = 0;
    rep.productiveUnits = 0;
    rep.extraBytes = 0;
    rep.eagerChunks = 0;
    rep.profiles.clear();
    rep.guardExcluded = 0;
    rep.guardRepairs = 0;
}

// ---- JobRing ---------------------------------------------------------

void
JobRing::grow()
{
    const std::size_t cap = slots.size();
    const std::size_t newCap = cap == 0 ? 16 : cap * 2;
    std::vector<detail::QueuedJob> next(newCap);
    for (std::size_t i = 0; i < count; ++i)
        next[i] = std::move(slots[(head + i) % cap]);
    slots = std::move(next);
    head = 0;
}

void
JobRing::push(detail::QueuedJob &&qj)
{
    if (count == slots.size())
        grow();
    slots[(head + count) % slots.size()] = std::move(qj);
    ++count;
}

detail::QueuedJob
JobRing::pop()
{
    detail::QueuedJob qj = std::move(slots[head]);
    head = (head + 1) % slots.size();
    --count;
    return qj;
}

detail::QueuedJob &
JobRing::at(std::size_t i)
{
    return slots[(head + i) % slots.size()];
}

const detail::QueuedJob &
JobRing::at(std::size_t i) const
{
    return slots[(head + i) % slots.size()];
}

detail::QueuedJob
JobRing::extract(std::size_t i)
{
    detail::QueuedJob qj = std::move(at(i));
    const std::size_t cap = slots.size();
    for (std::size_t j = i; j + 1 < count; ++j)
        slots[(head + j) % cap] = std::move(slots[(head + j + 1) % cap]);
    --count;
    return qj;
}

// ---- BufferPool ------------------------------------------------------

std::shared_ptr<detail::JobState>
BufferPool::acquireState(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::size_t n = states.size();
    for (std::size_t tries = 0; tries < n; ++tries) {
        if (scan >= n)
            scan = 0;
        std::shared_ptr<detail::JobState> &cand = states[scan++];
        if (cand.use_count() != 1)
            continue;
        // Only the pool references the block: no handle, no queued
        // shell.  Reset under the state's own mutex: every JobHandle
        // locks it once before dropping its reference, so this lock
        // orders the last holder's unlocked result() reads before the
        // reset (worker-side accesses already go through st.mu).
        {
            std::lock_guard<std::mutex> slock(cand->mu);
            cand->id = id;
            cand->phase.store(detail::JobState::Queued,
                              std::memory_order_relaxed);
            clearJobResult(cand->result);
        }
        ++stats_.reusedStates;
        return cand;
    }
    auto fresh = std::make_shared<detail::JobState>();
    fresh->id = id;
    ++stats_.freshStates;
    states.push_back(fresh);
    return fresh;
}

detail::QueuedJob
BufferPool::acquireShell()
{
    std::lock_guard<std::mutex> lock(mu);
    if (shells.empty()) {
        ++stats_.freshShells;
        return detail::QueuedJob();
    }
    ++stats_.reusedShells;
    detail::QueuedJob shell = std::move(shells.back());
    shells.pop_back();
    return shell;
}

void
BufferPool::releaseShell(detail::QueuedJob &&shell)
{
    // Capacity-preserving cleanup: strings/vectors keep their
    // storage, functions drop their captures, the state reference is
    // returned so the block can be recycled.
    shell.job.signature.clear();
    shell.job.units = 0;
    shell.job.args.clear();
    shell.job.opt = runtime::LaunchOptions();
    shell.job.ensureRegistered = nullptr;
    shell.job.done = nullptr;
    shell.job.deadlineNs = 0;
    shell.job.noBatch = false;
    shell.job.id = 0;
    shell.state.reset();
    shell.attempt = 0;
    shell.excluded.clear();
    shell.backoffNs = 0;
    shell.spentNs = 0;
    shell.enqueuedNs = 0;
    shell.storeCounted = false;

    std::lock_guard<std::mutex> lock(mu);
    shells.push_back(std::move(shell));
}

BufferPool::Stats
BufferPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stats_;
}

} // namespace serve
} // namespace dysel
