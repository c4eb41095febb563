/**
 * @file
 * Continuous selection-quality audit (DESIGN §11).
 *
 * The store's EMA-drift heuristic only notices when the *served*
 * variant gets slower than its own past; it is blind to the
 * runner-up quietly becoming faster (device drift, clock changes,
 * input-shape shifts within a bucket).  The auditor closes that loop:
 * at a configurable sampling rate, a warm store hit is followed by a
 * shadow re-profile -- the served winner and the stored runner-up
 * each run a small forced-variant probe slice on the worker thread --
 * and the realized **regret** (served-winner per-unit time vs the
 * best observed) is recorded as a per-(signature, device fingerprint,
 * size bucket) EMA plus a global histogram.  A key whose regret EMA
 * stays above the threshold is demoted into the existing store
 * quarantine (SelectionStore::reportFailure), which serves the
 * runner-up and eventually forces a re-profile.
 *
 * Sampling is stride-based (every round(1/rate)-th eligible hit),
 * not random, so a run's sample count is deterministic.
 *
 * Thread-safety: shouldSample()/ingest()/noteProbeFailure() may be
 * called from any worker thread; per-key state is mutex-protected.
 * The probes themselves are run by the caller (the dispatch service,
 * on the runtime it already owns), and so is the telemetry: the
 * auditor only decides, scores, and keeps its own totals; the caller
 * emits the audit.* counters, histogram and trace instants from the
 * returned verdict.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "dysel/store/selection_store.hh"
#include "support/json.hh"
#include "support/status.hh"

namespace dysel {
namespace obs {

/** Audit tuning knobs. */
struct AuditConfig
{
    /**
     * Fraction of warm store hits to shadow-audit, in [0, 1]; 0
     * disables the auditor.  Realized as a deterministic stride:
     * every round(1/sampleRate)-th eligible hit is sampled.
     */
    double sampleRate = 0.0;

    /**
     * Regret EMA above which a key's selection is demoted into the
     * store quarantine.  0.25 means "the served winner is 25% slower
     * per unit than the best variant we observed".
     */
    double regretThreshold = 0.25;

    /** Samples a key needs before its EMA can demote it. */
    std::uint64_t minSamples = 3;

    /** EMA weight of a new regret observation. */
    double emaAlpha = 0.3;

    /**
     * Probe slice sizing: a probe runs jobUnits / probeDivisor units,
     * clamped to [probeUnitsMin, probeUnitsMax] (and never more than
     * the job itself).  Both variants probe the same slice, so the
     * comparison is fair even though the slice is not amortized.
     */
    std::uint64_t probeUnitsMin = 32;
    std::uint64_t probeUnitsMax = 512;
    std::uint64_t probeDivisor = 16;

    bool enabled() const { return sampleRate > 0.0; }

    /** Sampling stride: round(1/sampleRate), at least 1. */
    std::uint64_t stride() const;

    /** Probe slice for a job of @p jobUnits units. */
    std::uint64_t probeUnits(std::uint64_t jobUnits) const;

    /** Typed consistency check (rate in [0,1], sane clamps). */
    support::Status validate() const;
};

/** One completed winner-vs-runner-up probe pair. */
struct AuditSample
{
    std::string signature;
    std::string device; ///< device fingerprint
    std::uint64_t units = 0; ///< the audited job's units (bucket key)

    std::string winner;   ///< served variant name
    std::string runnerUp; ///< best stored alternative probed
    double winnerUnitNs = 0;   ///< probe per-unit time of the winner
    double runnerUpUnitNs = 0; ///< probe per-unit time of the runner-up
};

/** What ingest() concluded. */
struct AuditVerdict
{
    double regret = 0;        ///< this sample's regret fraction
    double keyEma = 0;        ///< key EMA after the update
    std::uint64_t keySamples = 0; ///< key samples since last demotion
    bool demoted = false;     ///< the key was quarantined
    /** What the store's quarantine did (when demoted). */
    store::Observation observation = store::Observation::Ok;
    /** Degenerate measurement: counted as a failed probe, unscored. */
    bool probeFailed = false;
};

/**
 * The audit sampler/scorer.  One instance per DispatchService; the
 * store reference is the same shared store the service serves from.
 */
class SelectionAuditor
{
  public:
    SelectionAuditor(store::SelectionStore &store, AuditConfig cfg);

    const AuditConfig &config() const { return cfg_; }

    /**
     * Whether this warm hit should be shadow-audited (deterministic
     * stride over all eligible hits, service-wide).
     */
    bool shouldSample();

    /**
     * Score one probe pair: update the key's regret EMA and -- when
     * the EMA stays above the threshold with enough samples -- demote
     * the key via SelectionStore::reportFailure.  A demotion resets
     * the key's EMA so the post-quarantine selection is judged fresh.
     * A degenerate pair (a zero-length probe) is counted as a failed
     * probe and left unscored (verdict.probeFailed).
     */
    AuditVerdict ingest(const AuditSample &sample);

    /** A probe launch failed: count it without scoring. */
    void noteProbeFailure();

    /** Lifetime totals. */
    std::uint64_t samples() const;
    std::uint64_t demotions() const;
    std::uint64_t probeFailures() const;

    /** Mean regret fraction across all samples (0 when none). */
    double meanRegret() const;

    /**
     * Introspection document for /debug endpoints and reports:
     * config, totals, and per-key EMA/sample/demotion state.
     */
    support::Json toJson() const;

  private:
    struct KeyState
    {
        double ema = 0;
        double lastRegret = 0;
        std::uint64_t samples = 0;   ///< since the last demotion
        std::uint64_t demotions = 0; ///< lifetime
    };
    using Key = std::tuple<std::string, std::string, unsigned>;

    store::SelectionStore &store_;
    AuditConfig cfg_;

    std::atomic<std::uint64_t> eligible_{0}; ///< stride input

    mutable std::mutex mu;
    std::map<Key, KeyState> keys;
    std::uint64_t samples_ = 0;
    std::uint64_t demotions_ = 0;
    std::uint64_t probeFailures_ = 0;
    double regretSum_ = 0;
};

} // namespace obs
} // namespace dysel
