/**
 * @file
 * Persistent, device-aware selection store.
 *
 * The in-process Runtime remembers selections per signature and
 * forgets them at exit.  The store is the serving-layer complement:
 * records keyed by (kernel signature, device fingerprint,
 * workload-size bucket) that hold the winning variant, the
 * per-variant micro-profiling metrics it was chosen from, usage
 * counts, and a drift-tracked throughput baseline.  JSON save/load
 * gives cross-run warm starts; drift detection invalidates a record
 * (forcing re-profiling) when observed plain-run throughput deviates
 * from the baseline by more than a configurable factor.
 *
 * All public methods are thread-safe; the dispatch service shares one
 * store across all device workers.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "dysel/fed/version.hh"
#include "dysel/report.hh"
#include "support/json.hh"
#include "support/status.hh"

namespace dysel {
namespace store {

/**
 * Workload-size bucket of a launch: floor(log2(units)), so bucket b
 * covers [2^b, 2^(b+1)) units.  Selections generalize across nearby
 * sizes but not across order-of-magnitude changes (the paper's §4.2
 * input-dependence experiments are exactly about the latter).
 */
unsigned bucketOf(std::uint64_t units);

/** Inclusive [lo, hi] unit range covered by @p bucket. */
std::pair<std::uint64_t, std::uint64_t> bucketRange(unsigned bucket);

/**
 * Smallest launchable unit count that maps to @p bucket: the low edge
 * of the bucket's range, except 1 for bucket 0 (0 units is a
 * degenerate launch).  Inverse of bucketOf() for interpolation
 * arithmetic: bucketOf(unitsForBucket(b)) == min(b, 63) for every b.
 */
std::uint64_t unitsForBucket(unsigned bucket);

/** Store tuning knobs. */
struct StoreConfig
{
    /**
     * Drift threshold: a plain run whose per-unit time differs from
     * the record's baseline by more than this factor (either
     * direction) quarantines or invalidates the record.
     */
    double driftFactor = 1.5;

    /** EMA weight of a new observation in the throughput baseline. */
    double emaAlpha = 0.3;

    /** Confidence cap (consistent observations since last profile). */
    std::uint64_t maxConfidence = 1000;

    /**
     * Plain-run observations a quarantined record serves its
     * fallback variant before it is invalidated anyway (forcing a
     * fresh profile to re-evaluate the quarantined variant).
     */
    std::uint64_t quarantineCooldown = 8;

    /**
     * Plain launches a *predicted* record (seedPrediction) serves
     * before it is invalidated to force a confirming profile;
     * 0 leaves predicted records in place until drift, failure, or a
     * blacklist catches them.
     */
    std::uint64_t predictedProbationLaunches = 0;
};

/** What observePlain() / reportFailure() did to the record. */
enum class Observation {
    /** Observation consistent with the baseline (or no record). */
    Ok,
    /**
     * The selected variant misbehaved; the record now serves the
     * next-best profiled variant and will re-profile after a
     * cooldown.
     */
    Quarantined,
    /**
     * The record was invalidated; the next lookup misses, which
     * triggers re-profiling upstream.
     */
    Invalidated,
};

/** Stable lower-case name of @p obs (e.g. "quarantined"). */
const char *observationName(Observation obs);

/** One variant's metrics as captured at selection time. */
struct StoredProfile
{
    std::string name;
    double metricNs = 0; ///< selection metric (span on GPU, busy on CPU)
    double spanNs = 0;
    double busyNs = 0;
    std::uint64_t units = 0; ///< units the variant profiled

    /**
     * Whether the entry holds a measurement: the variant's pass
     * completed and the guard accepted its output.
     */
    bool measured() const { return units > 0; }
};

/** One (signature, device, bucket) selection record. */
struct SelectionRecord
{
    std::string signature;
    std::string device; ///< sim::Device::fingerprint()
    unsigned bucket = 0;

    int selected = -1; ///< registration index of the winner
    std::string selectedName;
    /** One entry per registered variant, in registration order. */
    std::vector<StoredProfile> profiles;

    std::uint64_t launches = 0;         ///< launches this record served
    std::uint64_t profiledLaunches = 0; ///< times profiling refreshed it
    /**
     * Staleness/confidence: consistent plain-run observations since
     * the last profile.  Reset to 0 by drift invalidation.
     */
    std::uint64_t confidence = 0;
    /**
     * Plain-run per-unit time baseline (ns/unit), EMA-updated;
     * 0 until the first plain run seeds it.
     */
    double unitTimeNs = 0.0;
    /** False after drift invalidation; invalid records never serve. */
    bool valid = true;

    /**
     * Registration index of the variant quarantine demoted, or -1
     * when the record is not quarantined.  While quarantined, the
     * record serves the next-best profiled variant.
     */
    int quarantinedVariant = -1;
    /**
     * Plain-run observations left before a quarantined record is
     * invalidated (forced re-profile); 0 when not quarantined.
     */
    std::uint64_t cooldownLeft = 0;
    /** Times this record's selection was quarantined, lifetime. */
    std::uint64_t quarantines = 0;

    /**
     * True when the selection was seeded by the predictor
     * (seedPrediction) rather than measured by a profiling pass.
     * Cleared by the next recordProfile() of the key.  Predicted
     * records carry no profiles, so any demotion invalidates them --
     * a bad prediction always falls back to a forced profile.
     */
    bool predicted = false;
    /** Calibrated confidence the prediction carried (0 if measured). */
    double predictedConfidence = 0.0;

    /**
     * Federation metadata (DESIGN §13).  `stamp` is the Lamport time
     * of the last payload write; `vv` the per-replica write history
     * the record has absorbed.  Both persist (format version 5) and
     * drive the deterministic merge rule in dysel/fed/merge.hh.
     */
    fed::Stamp stamp;
    fed::VersionVec vv;

    /**
     * Correlation id of the profiling launch that measured the
     * current selection, and the replica that ran it; 0 for predicted
     * or legacy records.  A follower replica's warm hit traces back
     * to the owner's profiling pass through this pair.
     */
    std::uint64_t profileCid = 0;
    std::uint32_t profileOrigin = 0;

    /**
     * Store-local change cursor: bumped on every write (local or
     * merged-in), never persisted.  Peers pull "everything with
     * seq > my last-seen" -- the anti-entropy delta filter.
     */
    std::uint64_t seq = 0;
};

/**
 * One blacklisted variant: the guard caught it misbehaving
 * (corrupt output, out-of-bounds write, NaN poisoning, or a hang)
 * strikeLimit times.  Keyed by (signature, variant, device
 * fingerprint): a variant miscompiled for one device may be fine on
 * another.  Blacklist entries survive save/load, so dyseld never
 * re-serves a known-bad variant across restarts.
 */
struct BlacklistEntry
{
    std::string signature;
    std::string variant; ///< variant name (stable across reloads)
    std::string device;  ///< sim::Device::fingerprint()
    std::string reason;  ///< guard check name of the final strike
    std::uint64_t strikes = 0; ///< times the guard reported it

    /** Lamport time of the last strike (federation merge metadata). */
    fed::Stamp stamp;
    /** Store-local change cursor; never persisted. */
    std::uint64_t seq = 0;
};

/** One store extension with its federation metadata. */
struct ExtensionEntry
{
    std::string name;
    support::Json value;
    fed::Stamp stamp;
};

/**
 * JSON (de)serialization of one record / blacklist entry -- the
 * same encoding the store document and the federation delta wire
 * format share, so a replicated record round-trips byte-identically.
 * recordFromJson/blacklistFromJson throw std::runtime_error on
 * malformed input.
 */
support::Json recordToJson(const SelectionRecord &rec);
SelectionRecord recordFromJson(const support::Json &doc);
support::Json blacklistToJson(const BlacklistEntry &entry);
BlacklistEntry blacklistFromJson(const support::Json &doc);

/**
 * The persistent selection database.
 */
class SelectionStore
{
  public:
    explicit SelectionStore(StoreConfig cfg = StoreConfig());

    const StoreConfig &config() const { return cfg_; }

    /**
     * Valid record for (@p signature, @p device, bucketOf(@p units)),
     * or nullopt.  A pure read: the serving layer counts hits and
     * misses per job (store.hit / store.miss), the store counts none.
     */
    std::optional<SelectionRecord>
    lookup(const std::string &signature, const std::string &device,
           std::uint64_t units) const;

    /** Whether the store holds any record, valid or invalidated, of
     * the key: only an unknown key may take a prediction. */
    bool known(const std::string &signature, const std::string &device,
               std::uint64_t units) const;

    /**
     * Account @p jobs launches served from the record covering
     * (@p signature, @p device, bucketOf(@p units)) without feeding
     * the drift baseline.  Fused launches use this instead of
     * observePlain(): a fused launch amortizes per-launch overhead
     * across members, so its per-unit time is not comparable to the
     * solo baseline and would trigger false drift quarantines.
     * No-op when no valid record covers the key.
     */
    void noteServed(const std::string &signature,
                    const std::string &device, std::uint64_t units,
                    std::uint64_t jobs);

    /**
     * Ingest a profiled launch: create or refresh the record for the
     * report's (signature, bucket) on @p device.  Ignores reports
     * that did not profile.  Fires the profile observer (the
     * predictor's training feed) outside the store lock.
     */
    void recordProfile(const std::string &device,
                       const runtime::LaunchReport &report,
                       std::uint64_t profileCid = 0);

    /**
     * Seed a *predicted* selection for (@p signature, @p device,
     * bucketOf(@p units)): a valid record that serves @p variantName
     * without any profiling having run.  Only a key the store holds
     * no record of is seeded; any record, valid or invalidated, makes
     * this a no-op, so every invalidation (drift, quarantine cooldown,
     * probation, blacklist, invalidate()) leads to a profile.  The
     * record carries no per-variant profiles, so the first drift or
     * failure invalidates it outright -- the safety net for a bad
     * prediction is a forced profile, never a guessier guess.
     */
    void seedPrediction(const std::string &signature,
                        const std::string &device, std::uint64_t units,
                        int variantIndex, const std::string &variantName,
                        double confidence);

    /**
     * Ingest a plain (cache-served) launch: update the throughput
     * baseline and confidence.  An observation that drifts beyond
     * config().driftFactor quarantines the record (first offense
     * with a known runner-up) or invalidates it; a quarantined
     * record is also invalidated once its cooldown runs out.
     */
    Observation observePlain(const std::string &device,
                             const runtime::LaunchReport &report);

    /**
     * Report that a launch served from this record failed outright
     * (e.g. an injected launch failure on a warm-started selection).
     * Same escalation as a drifted observation: quarantine first,
     * invalidate on repeat.  Ok when no record covers the key.
     */
    Observation reportFailure(const std::string &signature,
                              const std::string &device,
                              std::uint64_t units);

    /** Mark one record invalid (administrative invalidation). */
    void invalidate(const std::string &signature,
                    const std::string &device, unsigned bucket);

    /**
     * Blacklist (@p signature, @p variant) on @p device: the guard
     * caught the variant misbehaving.  Repeated calls bump the strike
     * count and keep the latest reason.  Any valid record of the
     * signature on the device whose selection is the variant is
     * invalidated (whatever its bucket), so lookups miss and
     * re-profiling -- which excludes the variant -- is forced.
     */
    void blacklistVariant(const std::string &signature,
                          const std::string &variant,
                          const std::string &device,
                          const std::string &reason);

    /** Whether (@p signature, @p variant, @p device) is blacklisted. */
    bool isBlacklisted(const std::string &signature,
                       const std::string &variant,
                       const std::string &device) const;

    /**
     * (variant name, reason) of every blacklisted variant of
     * @p signature on @p device; used to seed a Runtime's guard.
     */
    std::vector<std::pair<std::string, std::string>>
    blacklistedVariants(const std::string &signature,
                        const std::string &device) const;

    /** Copy of the whole blacklist, deterministically ordered. */
    std::vector<BlacklistEntry> blacklistEntries() const;

    /** Number of blacklist entries. */
    std::size_t blacklistSize() const;

    /**
     * Observer of every completed profiling pass, called with a copy
     * of the freshly refreshed record *after* the store lock is
     * released (the callback may call back into the store).  This is
     * the predictor's training-example feed -- the store's own
     * history, not a parallel log.  One observer; empty disables.
     */
    void setProfileObserver(
        std::function<void(const SelectionRecord &)> observer);

    /**
     * Observer of predicted-record demotions: called, outside the
     * lock, with a copy of the record as it was *before* demotion
     * whenever a record with predicted == true is quarantined or
     * invalidated by drift, failure, or a blacklist.  Probation
     * expiry (predictedProbationLaunches) does not fire it -- that is
     * scheduled confirmation, not a mis-prediction.
     */
    void setDemotionObserver(
        std::function<void(const SelectionRecord &)> observer);

    /**
     * Attach an extension document persisted with the store (format
     * version 4): a named payload such as the selection predictor's
     * learned model.  Null @p value removes the extension.
     */
    void setExtension(const std::string &name, support::Json value);

    /** Extension payload by name, or nullopt. */
    std::optional<support::Json>
    extension(const std::string &name) const;

    /** All extensions with their stamps, ordered by name. */
    std::vector<ExtensionEntry> extensionEntries() const;

    // ---- Federation (DESIGN §13) -------------------------------
    //
    // The store is the *local engine*; the replication layer in
    // src/dysel/fed/ drives it through the calls below.  Local
    // mutators stamp what they touch with (++lamport, replica) and a
    // fresh change cursor; applyRemote*() folds a peer's items in
    // through the deterministic merge rule (freshest stamp wins,
    // version vectors join, blacklists grow) WITHOUT firing the
    // profile/demotion observers -- replicated evidence is not local
    // training signal.

    /** Set this store's replica id (stamps carry it).  Default 0. */
    void setReplica(std::uint32_t id);
    std::uint32_t replica() const;

    /** Current Lamport clock (max of local writes and merged stamps). */
    std::uint64_t lamportClock() const;

    /** Current change cursor (seq of the most recent write). */
    std::uint64_t changeSeq() const;

    /** Everything a peer at cursor @p seq has not seen yet. */
    struct Changes
    {
        std::vector<SelectionRecord> records;
        std::vector<BlacklistEntry> blacklist;
        std::vector<ExtensionEntry> extensions;
        std::uint64_t seqHigh = 0; ///< the peer's next cursor
    };
    Changes changedSince(std::uint64_t seq) const;

    /** What applying one remote item did. */
    enum class Apply {
        Applied, ///< the remote payload won (installed or replaced)
        Merged,  ///< local payload kept, but its version vector grew
        Stale,   ///< already covered; no change at all
    };

    Apply applyRemoteRecord(const SelectionRecord &rec);
    Apply applyRemoteBlacklist(const BlacklistEntry &entry);
    Apply applyRemoteExtension(const ExtensionEntry &entry);

    /** Remove every record. */
    void clear();

    /** Number of records (valid and invalid). */
    std::size_t size() const;

    /** Copy of all records, ordered by (signature, device, bucket). */
    std::vector<SelectionRecord> records() const;

    /** Lifetime statistics. */
    std::uint64_t driftInvalidations() const;
    std::uint64_t quarantineCount() const;

    /** Serialize all records (deterministic field and record order). */
    support::Json toJson() const;

    /**
     * Replace the contents from toJson() output.  Throws
     * std::runtime_error on a malformed document.
     */
    void loadJson(const support::Json &doc);

    /**
     * Crash-safe save: the document is written to "<path>.tmp",
     * fsync'd, and atomically renamed over @p path, so a crash at any
     * point leaves either the old or the new file -- never a torn
     * one.  The file embeds an FNV-1a checksum of its payload.
     * Unavailable on I/O errors (the previous file, if any, is left
     * untouched).
     */
    support::Status saveFile(const std::string &path) const;

    /**
     * Load a saveFile() product.  NotFound when @p path does not
     * exist (callers usually treat that as a cold start); DataLoss
     * when the file is truncated, unparseable, fails its checksum, or
     * carries an unsupported version.  On any failure the in-memory
     * contents are left untouched -- the store never partially loads.
     * Legacy (pre-checksum) naked documents still load.
     */
    support::Status loadFile(const std::string &path);

  private:
    using Key = std::tuple<std::string, std::string, unsigned>;
    /** (signature, variant name, device fingerprint). */
    using BlKey = std::tuple<std::string, std::string, std::string>;

    /**
     * Demote @p rec's selection: switch to the best profiled
     * runner-up and start the cooldown, or invalidate when the
     * record is already quarantined / has no runner-up.  Caller
     * holds the lock.
     */
    Observation demoteLocked(SelectionRecord &rec);

    /** Invalidate @p rec in place.  Caller holds the lock. */
    void invalidateLocked(SelectionRecord &rec);

    /** Next local write stamp.  Caller holds the lock. */
    fed::Stamp bumpLocked();

    /** Stamp a local payload write of @p rec.  Caller holds the lock. */
    void stampLocked(SelectionRecord &rec);

    /** One extension payload with federation metadata. */
    struct ExtSlot
    {
        support::Json value;
        fed::Stamp stamp;
        std::uint64_t seq = 0;
    };

    mutable std::mutex mu;
    StoreConfig cfg_;
    std::map<Key, SelectionRecord> recs;
    std::map<BlKey, BlacklistEntry> blacklist;
    std::map<std::string, ExtSlot> extensions;
    std::function<void(const SelectionRecord &)> profileObserver;
    std::function<void(const SelectionRecord &)> demotionObserver;
    std::uint64_t drifts_ = 0;
    std::uint64_t quarantines_ = 0;
    std::uint32_t replica_ = 0;
    std::uint64_t lamport_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace store
} // namespace dysel
