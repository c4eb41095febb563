/**
 * @file
 * The serving event table: every event the dispatch service counts,
 * traces or flight-records, declared once (DESIGN §11).
 *
 * A row names its metric family (or, for a phase that counts nothing,
 * the phase), its HELP text, whether the family carries a device
 * label, and the trace instant and flight-recorder phase the same
 * event leaves, if any.  DispatchService::emit() reads the row, so a
 * counter, its instant and its flight record cannot drift apart: one
 * call writes all three.  Call sites name a row with event("family"),
 * which resolves at compile time -- a misspelled name does not build.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace dysel {
namespace serve {

/** What a row's family measures. */
enum class MetricKind : std::uint8_t {
    None,      ///< a trace or flight phase that counts nothing
    Counter,   ///< emit() adds its count
    Histogram, ///< observe() records one sample
};

/** One declared serving event. */
struct EventRow
{
    /** Metric family; the phase name for a MetricKind::None row. */
    const char *name;
    MetricKind kind;
    /** One series per device worker, labelled device="devN". */
    bool perDevice;
    /** Trace-instant name, or nullptr. */
    const char *instant;
    /** Flight-recorder phase, or nullptr. */
    const char *flight;
    /** Prometheus HELP text (metric rows only). */
    const char *help;
};

inline constexpr EventRow eventTable[] = {
    // ---- jobs
    {"jobs.submitted", MetricKind::Counter, false, nullptr, nullptr,
     "Jobs passed to submitMany(), shed and refused ones included."},
    {"jobs.completed", MetricKind::Counter, false, nullptr, nullptr,
     "Jobs that finished with an OK status."},
    {"jobs.failed", MetricKind::Counter, false, nullptr, "failed",
     "Jobs that finished with a non-OK status."},
    {"jobs.cancelled", MetricKind::Counter, false, nullptr, nullptr,
     "Jobs withdrawn while still queued."},
    {"job.device_ns", MetricKind::Histogram, false, nullptr, nullptr,
     "Device time of each job whose launch succeeded (virtual ns)."},
    {"job.attempts", MetricKind::Histogram, false, nullptr, nullptr,
     "Attempts per terminal job, failed jobs included."},
    {"job.backoff_ns", MetricKind::Histogram, false, nullptr, nullptr,
     "Charged virtual retry backoff per terminal job that backed off "
     "(ns)."},
    {"claim", MetricKind::None, false, nullptr, "claim", nullptr},
    {"register", MetricKind::None, false, nullptr, "register", nullptr},
    {"launch", MetricKind::None, false, nullptr, "launch", nullptr},

    // ---- admission control
    {"admission.blocked", MetricKind::Counter, false, nullptr, nullptr,
     "Submissions that blocked on a full queue."},
    {"admission.block_ns", MetricKind::Histogram, false, nullptr, nullptr,
     "Wall time submitters spent blocked (ns)."},
    {"admission.shed", MetricKind::Counter, false, "admission.shed",
     nullptr, "Jobs shed by admission control."},
    {"admission.stopped", MetricKind::Counter, false, nullptr, nullptr,
     "Jobs refused because the service was stopping."},

    // ---- selection store
    {"store.hit", MetricKind::Counter, false, "store.hit", "lookup",
     "Jobs served warm from a stored selection (counted once per job, "
     "at its first store read)."},
    {"store.miss", MetricKind::Counter, false, nullptr, "lookup",
     "Jobs that ran without a usable stored selection (counted once "
     "per job, at its first store read)."},
    {"store.record", MetricKind::Counter, false, nullptr, nullptr,
     "Profiled launches recorded into the store."},
    {"store.quarantine", MetricKind::Counter, false, "store.quarantine",
     nullptr, "Records demoted to their runner-up variant."},
    {"store.drift_invalidation", MetricKind::Counter, false, nullptr,
     nullptr, "Records invalidated by throughput drift."},

    // ---- batching
    {"batch.gather", MetricKind::None, false, "batch.gather", "batch",
     nullptr},
    {"batch.launches", MetricKind::Counter, false, nullptr, nullptr,
     "Fused launches executed."},
    {"batch.jobs", MetricKind::Counter, false, nullptr, nullptr,
     "Jobs served by fused launches."},
    {"batch.size", MetricKind::Histogram, false, nullptr, nullptr,
     "Jobs per fused launch."},
    {"batch.demoted", MetricKind::Counter, false, "batch.demoted",
     "batch.demote", "Batch members demoted to solo re-execution."},

    // ---- fault tolerance
    {"recover.retries", MetricKind::Counter, false, "retry", "retry",
     "Job attempts retried on another device."},
    {"recover.timeouts", MetricKind::Counter, false, nullptr, nullptr,
     "Deadline expirations (device or job)."},
    {"breaker.trips", MetricKind::Counter, false, nullptr, nullptr,
     "Circuit breakers opened."},
    {"breaker.reopens", MetricKind::Counter, false, nullptr, nullptr,
     "Failed half-open probes."},
    {"breaker.closes", MetricKind::Counter, false, nullptr, nullptr,
     "Circuit breakers closed by a probe."},

    // ---- profiling single-flight
    {"coalesce.leader", MetricKind::Counter, false, nullptr, nullptr,
     "Profiling passes led for a cold key."},
    {"coalesce.follower", MetricKind::Counter, false, "coalesce.attach",
     "coalesce", "Jobs that waited behind a profiling leader."},
    {"coalesce.hit", MetricKind::Counter, false, "coalesce.served",
     nullptr, "Followers served warm from their leader's record."},
    {"coalesce.leader_failed", MetricKind::Counter, false, nullptr,
     nullptr, "Leaders that released without recording."},

    // ---- learned selection
    {"predict.hit", MetricKind::Counter, false, "predict.hit", "predict",
     "Store misses served by a prediction."},
    {"predict.miss", MetricKind::Counter, false, "predict.miss", nullptr,
     "Misses of unknown keys whose prediction was not confident."},
    {"predict.demoted", MetricKind::Counter, false, "predict.demoted",
     nullptr, "Predicted selections demoted."},
    {"predict.train", MetricKind::Counter, false, nullptr, nullptr,
     "Online training examples fed in."},

    // ---- federation
    {"fed.warm_hit", MetricKind::Counter, false, "fed.warm_hit", "fed",
     "Cold misses served warm by a peer replica's record."},

    // ---- variant guard (one row per guard::CheckKind)
    {"guard.mismatch", MetricKind::Counter, false, "guard.strike", nullptr,
     "Guard detections: output differs from the reference variant."},
    {"guard.redzone", MetricKind::Counter, false, "guard.strike", nullptr,
     "Guard detections: canary redzone overwritten."},
    {"guard.nan", MetricKind::Counter, false, "guard.strike", nullptr,
     "Guard detections: output poisoned with NaN or Inf."},
    {"guard.watchdog", MetricKind::Counter, false, "guard.strike", nullptr,
     "Guard detections: profiling slice never completed."},
    {"guard.excluded", MetricKind::Counter, false, nullptr, nullptr,
     "Variants excluded up front by the blacklist."},
    {"guard.repair", MetricKind::Counter, false, nullptr, nullptr,
     "Productive slices re-executed after a guard strike."},
    {"guard.blacklist", MetricKind::Counter, false, nullptr, nullptr,
     "Variants blacklisted by the guard."},
    {"guard.blocked_warmstart", MetricKind::Counter, false,
     "store.blocked_warmstart", nullptr,
     "Store reads (one per attempt) that found a since-blacklisted "
     "winner."},

    // ---- kernel pools
    {"pool.install_failed", MetricKind::Counter, false, nullptr, nullptr,
     "Kernel-pool installers that threw."},

    // ---- selection audit
    {"audit.probe", MetricKind::None, false, nullptr, "audit", nullptr},
    {"audit.samples", MetricKind::Counter, false, "audit.sample", nullptr,
     "Warm hits shadow-audited against the runner-up."},
    {"audit.regret_pct", MetricKind::Histogram, false, nullptr, nullptr,
     "Realized selection regret per audit sample (percent)."},
    {"audit.demotions", MetricKind::Counter, false, "audit.demoted",
     nullptr, "Selections quarantined by sustained audit regret."},
    {"audit.probe_failed", MetricKind::Counter, false,
     "audit.probe_failed", nullptr, "Audit probes whose launch failed."},

    // ---- per device
    {"device.jobs", MetricKind::Counter, true, nullptr, nullptr,
     "Jobs whose launch succeeded, per device."},
    {"device.store_hits", MetricKind::Counter, true, nullptr, nullptr,
     "Jobs served warm, per device."},
    {"device.profiled", MetricKind::Counter, true, nullptr, nullptr,
     "Profiling launches run, per device."},
    {"device.latency_ns", MetricKind::Histogram, true, nullptr, nullptr,
     "Device time of each job whose launch succeeded, per device (ns)."},
    {"device.breaker_trips", MetricKind::Counter, true, nullptr, nullptr,
     "Breaker trips, per device."},
    {"device.retries_out", MetricKind::Counter, true, nullptr, nullptr,
     "Jobs retried away, per device."},
    {"device.shed", MetricKind::Counter, true, nullptr, nullptr,
     "Jobs shed, per device."},
};

inline constexpr std::size_t eventCount = std::size(eventTable);

/** A row of eventTable (its index). */
enum class Event : std::uint8_t {};

/** Index of the row named @p name; eventCount when there is none. */
constexpr std::size_t
findEvent(std::string_view name)
{
    for (std::size_t i = 0; i < eventCount; ++i)
        if (name == eventTable[i].name)
            return i;
    return eventCount;
}

/** The row named @p name, resolved at compile time. */
consteval Event
event(std::string_view name)
{
    const std::size_t i = findEvent(name);
    if (i == eventCount)
        throw "unknown serving event"; // not a constant: fails to build
    return static_cast<Event>(i);
}

} // namespace serve
} // namespace dysel
