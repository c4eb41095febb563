#include "selection_store.hh"

#include "dysel/fed/merge.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace dysel {
namespace store {

using support::Json;

unsigned
bucketOf(std::uint64_t units)
{
    // floor(log2(units)); 0 and 1 unit share bucket 0 (a 0-unit
    // launch is degenerate but must not wrap or trap).  The highest
    // representable bucket is 63 (units >= 2^63).
    unsigned b = 0;
    while (units > 1) {
        units >>= 1;
        ++b;
    }
    return b;
}

std::pair<std::uint64_t, std::uint64_t>
bucketRange(unsigned bucket)
{
    // Clamp at both ends rather than shifting by >= 64 (undefined
    // behaviour) or letting `lo * 2 - 1` wrap past 2^64: out-of-range
    // bucket indices from interpolation arithmetic must degrade to
    // the edge buckets, not alias small ones.
    if (bucket == 0)
        return {0, 1};
    if (bucket >= 63)
        return {std::uint64_t{1} << 63, ~std::uint64_t{0}};
    const std::uint64_t lo = std::uint64_t{1} << bucket;
    return {lo, lo * 2 - 1};
}

std::uint64_t
unitsForBucket(unsigned bucket)
{
    if (bucket == 0)
        return 1;
    return bucketRange(bucket).first;
}

const char *
observationName(Observation obs)
{
    switch (obs) {
      case Observation::Ok: return "ok";
      case Observation::Quarantined: return "quarantined";
      case Observation::Invalidated: return "invalidated";
    }
    return "?";
}

Json
recordToJson(const SelectionRecord &rec)
{
    Json profiles = Json::array();
    for (const auto &p : rec.profiles) {
        Json jp = Json::object();
        jp.set("name", Json(p.name));
        jp.set("metric_ns", Json(p.metricNs));
        jp.set("span_ns", Json(p.spanNs));
        jp.set("busy_ns", Json(p.busyNs));
        jp.set("units", Json(p.units));
        profiles.push(std::move(jp));
    }
    Json jr = Json::object();
    jr.set("signature", Json(rec.signature));
    jr.set("device", Json(rec.device));
    jr.set("bucket", Json(rec.bucket));
    jr.set("selected", Json(rec.selected));
    jr.set("selected_name", Json(rec.selectedName));
    jr.set("profiles", std::move(profiles));
    jr.set("launches", Json(rec.launches));
    jr.set("profiled_launches", Json(rec.profiledLaunches));
    jr.set("confidence", Json(rec.confidence));
    jr.set("unit_time_ns", Json(rec.unitTimeNs));
    jr.set("valid", Json(rec.valid));
    jr.set("quarantined_variant", Json(rec.quarantinedVariant));
    jr.set("cooldown_left", Json(rec.cooldownLeft));
    jr.set("quarantines", Json(rec.quarantines));
    jr.set("predicted", Json(rec.predicted));
    jr.set("predicted_confidence", Json(rec.predictedConfidence));
    jr.set("stamp_tick", Json(rec.stamp.tick));
    jr.set("stamp_origin", Json(rec.stamp.origin));
    jr.set("vv", rec.vv.toJson());
    jr.set("profile_cid", Json(rec.profileCid));
    jr.set("profile_origin", Json(rec.profileOrigin));
    return jr;
}

SelectionRecord
recordFromJson(const Json &jr)
{
    SelectionRecord rec;
    rec.signature = jr.at("signature").asString();
    rec.device = jr.at("device").asString();
    rec.bucket = static_cast<unsigned>(jr.at("bucket").asUint());
    rec.selected = static_cast<int>(jr.at("selected").asInt());
    rec.selectedName = jr.stringOr("selected_name", "");
    rec.launches = jr.at("launches").asUint();
    rec.profiledLaunches = jr.intOr("profiled_launches", 0);
    rec.confidence = jr.intOr("confidence", 0);
    rec.unitTimeNs = jr.numberOr("unit_time_ns", 0.0);
    rec.valid = jr.boolOr("valid", true);
    rec.quarantinedVariant =
        static_cast<int>(jr.intOr("quarantined_variant", -1));
    rec.cooldownLeft = jr.intOr("cooldown_left", 0);
    rec.quarantines = jr.intOr("quarantines", 0);
    rec.predicted = jr.boolOr("predicted", false);
    rec.predictedConfidence = jr.numberOr("predicted_confidence", 0.0);
    rec.stamp.tick = jr.intOr("stamp_tick", 0);
    rec.stamp.origin =
        static_cast<std::uint32_t>(jr.intOr("stamp_origin", 0));
    if (jr.has("vv"))
        rec.vv = fed::VersionVec::fromJson(jr.at("vv"));
    rec.profileCid = jr.intOr("profile_cid", 0);
    rec.profileOrigin =
        static_cast<std::uint32_t>(jr.intOr("profile_origin", 0));
    if (jr.has("profiles")) {
        for (const Json &jp : jr.at("profiles").items()) {
            StoredProfile sp;
            sp.name = jp.stringOr("name", "");
            sp.metricNs = jp.numberOr("metric_ns", 0.0);
            sp.spanNs = jp.numberOr("span_ns", 0.0);
            sp.busyNs = jp.numberOr("busy_ns", 0.0);
            sp.units = jp.intOr("units", 0);
            rec.profiles.push_back(std::move(sp));
        }
    }
    return rec;
}

Json
blacklistToJson(const BlacklistEntry &e)
{
    Json jb = Json::object();
    jb.set("signature", Json(e.signature));
    jb.set("variant", Json(e.variant));
    jb.set("device", Json(e.device));
    jb.set("reason", Json(e.reason));
    jb.set("strikes", Json(e.strikes));
    jb.set("stamp_tick", Json(e.stamp.tick));
    jb.set("stamp_origin", Json(e.stamp.origin));
    return jb;
}

BlacklistEntry
blacklistFromJson(const Json &jb)
{
    BlacklistEntry e;
    e.signature = jb.at("signature").asString();
    e.variant = jb.at("variant").asString();
    e.device = jb.at("device").asString();
    e.reason = jb.stringOr("reason", "");
    e.strikes = jb.intOr("strikes", 1);
    e.stamp.tick = jb.intOr("stamp_tick", 0);
    e.stamp.origin =
        static_cast<std::uint32_t>(jb.intOr("stamp_origin", 0));
    return e;
}

SelectionStore::SelectionStore(StoreConfig cfg) : cfg_(cfg) {}

fed::Stamp
SelectionStore::bumpLocked()
{
    return fed::Stamp{++lamport_, replica_};
}

void
SelectionStore::stampLocked(SelectionRecord &rec)
{
    rec.stamp = bumpLocked();
    rec.vv.observe(replica_, rec.stamp.tick);
    rec.seq = ++seq_;
}

std::optional<SelectionRecord>
SelectionStore::lookup(const std::string &signature,
                       const std::string &device,
                       std::uint64_t units) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = recs.find(Key{signature, device, bucketOf(units)});
    if (it == recs.end() || !it->second.valid)
        return std::nullopt;
    return it->second;
}

bool
SelectionStore::known(const std::string &signature,
                      const std::string &device, std::uint64_t units) const
{
    std::lock_guard<std::mutex> lock(mu);
    return recs.count(Key{signature, device, bucketOf(units)}) > 0;
}

void
SelectionStore::noteServed(const std::string &signature,
                           const std::string &device, std::uint64_t units,
                           std::uint64_t jobs)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = recs.find(Key{signature, device, bucketOf(units)});
    if (it == recs.end() || !it->second.valid)
        return;
    it->second.launches += jobs;
    stampLocked(it->second);
}

void
SelectionStore::recordProfile(const std::string &device,
                              const runtime::LaunchReport &report,
                              std::uint64_t profileCid)
{
    if (!report.profiled || report.selected < 0)
        return;
    SelectionRecord snapshot;
    std::function<void(const SelectionRecord &)> observer;
    {
        std::lock_guard<std::mutex> lock(mu);
        const unsigned bucket = bucketOf(report.totalUnits);
        SelectionRecord &rec =
            recs[Key{report.signature, device, bucket}];
        rec.signature = report.signature;
        rec.device = device;
        rec.bucket = bucket;
        rec.selected = report.selected;
        rec.selectedName = report.selectedName;
        // One entry per registered variant, so profiles[i] is variant
        // i.  Only a pass the guard accepted is a measurement: a
        // struck, hung, or blacklisted variant keeps just its name, so
        // no fallback ever serves it.
        rec.profiles.clear();
        rec.profiles.reserve(report.profiles.size());
        for (const auto &p : report.profiles) {
            StoredProfile &sp = rec.profiles.emplace_back();
            sp.name = p.name;
            if (p.outcome != "pass")
                continue;
            sp.metricNs = static_cast<double>(p.metric);
            sp.spanNs = static_cast<double>(p.span);
            sp.busyNs = static_cast<double>(p.busy);
            sp.units = p.units;
        }
        rec.launches++;
        rec.profiledLaunches++;
        // A fresh profile starts a fresh observation history and lifts
        // any quarantine: the offending variant competed again and the
        // measurements above are the new truth.  It also supersedes
        // any prediction -- this record is measured now.
        rec.confidence = 0;
        rec.unitTimeNs = 0.0;
        rec.valid = true;
        rec.quarantinedVariant = -1;
        rec.cooldownLeft = 0;
        rec.predicted = false;
        rec.predictedConfidence = 0.0;
        rec.profileCid = profileCid;
        rec.profileOrigin = replica_;
        stampLocked(rec);
        if (profileObserver) {
            snapshot = rec;
            observer = profileObserver;
        }
    }
    // Training feed outside the lock: the observer (the predictor)
    // may take its own locks or call back into the store.
    if (observer)
        observer(snapshot);
}

void
SelectionStore::seedPrediction(const std::string &signature,
                               const std::string &device,
                               std::uint64_t units, int variantIndex,
                               const std::string &variantName,
                               double confidence)
{
    if (variantIndex < 0 || variantName.empty())
        return;
    std::lock_guard<std::mutex> lock(mu);
    const unsigned bucket = bucketOf(units);
    // Only a key the store has never seen takes a prediction: any
    // record -- measured, predicted, or invalidated on purpose --
    // means the next answer comes from a profile.
    auto [it, fresh] = recs.try_emplace(Key{signature, device, bucket});
    if (!fresh)
        return;
    SelectionRecord &rec = it->second;
    rec.signature = signature;
    rec.device = device;
    rec.bucket = bucket;
    rec.selected = variantIndex;
    rec.selectedName = variantName;
    rec.predicted = true;
    rec.predictedConfidence = confidence;
    stampLocked(rec);
}

void
SelectionStore::invalidateLocked(SelectionRecord &rec)
{
    rec.valid = false;
    rec.confidence = 0;
    rec.unitTimeNs = 0.0;
    rec.quarantinedVariant = -1;
    rec.cooldownLeft = 0;
}

Observation
SelectionStore::demoteLocked(SelectionRecord &rec)
{
    if (rec.quarantinedVariant >= 0) {
        // The fallback misbehaved too; nothing left to trust.
        invalidateLocked(rec);
        ++drifts_;
        return Observation::Invalidated;
    }
    // Best profiled runner-up (lowest metric, not the offender).
    int runnerUp = -1;
    for (std::size_t i = 0; i < rec.profiles.size(); ++i) {
        if (static_cast<int>(i) == rec.selected
            || !rec.profiles[i].measured())
            continue;
        if (runnerUp < 0
            || rec.profiles[i].metricNs
                   < rec.profiles[runnerUp].metricNs) {
            runnerUp = static_cast<int>(i);
        }
    }
    if (runnerUp < 0) {
        invalidateLocked(rec);
        ++drifts_;
        return Observation::Invalidated;
    }
    rec.quarantinedVariant = rec.selected;
    rec.selected = runnerUp;
    rec.selectedName = rec.profiles[runnerUp].name;
    rec.cooldownLeft = cfg_.quarantineCooldown;
    rec.quarantines++;
    // The fallback needs its own baseline.
    rec.confidence = 0;
    rec.unitTimeNs = 0.0;
    ++quarantines_;
    return Observation::Quarantined;
}

Observation
SelectionStore::observePlain(const std::string &device,
                             const runtime::LaunchReport &report)
{
    if (report.profiled || report.totalUnits == 0)
        return Observation::Ok;
    Observation result = Observation::Ok;
    SelectionRecord demoted;
    std::function<void(const SelectionRecord &)> observer;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = recs.find(
            Key{report.signature, device, bucketOf(report.totalUnits)});
        if (it == recs.end() || !it->second.valid)
            return Observation::Ok; // nothing to check against
        SelectionRecord &rec = it->second;
        rec.launches++;

        const double observed =
            static_cast<double>(report.elapsed())
            / static_cast<double>(report.totalUnits);
        const bool seeding = rec.unitTimeNs <= 0.0;
        bool driftDemotion = false;
        if (!seeding) {
            const double ratio = observed > rec.unitTimeNs
                                     ? observed / rec.unitTimeNs
                                     : rec.unitTimeNs / observed;
            driftDemotion = ratio > cfg_.driftFactor;
        }
        if (driftDemotion) {
            // A drifted *predicted* selection is a mis-prediction:
            // snapshot the record first so the corrective feed sees
            // the variant that was wrong.
            if (rec.predicted && demotionObserver) {
                demoted = rec;
                observer = demotionObserver;
            }
            result = demoteLocked(rec);
        } else if (rec.predicted
                   && cfg_.predictedProbationLaunches > 0
                   && rec.launches >= cfg_.predictedProbationLaunches) {
            // Probation over: force a confirming profile.  Scheduled
            // validation, not a mis-prediction -- no demotion feed.
            invalidateLocked(rec);
            result = Observation::Invalidated;
        } else {
            if (seeding) {
                // First plain run after (re-)profiling seeds the
                // baseline.
                rec.unitTimeNs = observed;
                rec.confidence = 1;
            } else {
                rec.unitTimeNs = (1.0 - cfg_.emaAlpha) * rec.unitTimeNs
                                 + cfg_.emaAlpha * observed;
                if (rec.confidence < cfg_.maxConfidence)
                    rec.confidence++;
            }
            if (rec.quarantinedVariant >= 0
                && --rec.cooldownLeft == 0) {
                // Cooldown over: force a fresh profile so the
                // quarantined variant gets re-evaluated instead of
                // being exiled forever.
                invalidateLocked(rec);
                result = Observation::Invalidated;
            }
        }
        // Every branch above mutated the record (launches at least).
        stampLocked(rec);
    }
    if (observer)
        observer(demoted);
    return result;
}

Observation
SelectionStore::reportFailure(const std::string &signature,
                              const std::string &device,
                              std::uint64_t units)
{
    Observation result = Observation::Ok;
    SelectionRecord demoted;
    std::function<void(const SelectionRecord &)> observer;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = recs.find(Key{signature, device, bucketOf(units)});
        if (it == recs.end() || !it->second.valid)
            return Observation::Ok;
        if (it->second.predicted && demotionObserver) {
            demoted = it->second;
            observer = demotionObserver;
        }
        result = demoteLocked(it->second);
        stampLocked(it->second);
    }
    if (observer)
        observer(demoted);
    return result;
}

void
SelectionStore::invalidate(const std::string &signature,
                           const std::string &device, unsigned bucket)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = recs.find(Key{signature, device, bucket});
    if (it != recs.end()) {
        invalidateLocked(it->second);
        stampLocked(it->second);
    }
}

void
SelectionStore::blacklistVariant(const std::string &signature,
                                 const std::string &variant,
                                 const std::string &device,
                                 const std::string &reason)
{
    std::vector<SelectionRecord> demotedPredictions;
    std::function<void(const SelectionRecord &)> observer;
    {
        std::lock_guard<std::mutex> lock(mu);
        BlacklistEntry &e =
            blacklist[BlKey{signature, variant, device}];
        e.signature = signature;
        e.variant = variant;
        e.device = device;
        e.reason = reason;
        e.strikes++;
        e.stamp = bumpLocked();
        e.seq = ++seq_;
        // A record serving the blacklisted variant must never
        // warm-start anyone again, whatever its bucket: force a miss,
        // which forces a re-profile that excludes the variant.
        for (auto &[key, rec] : recs) {
            (void)key;
            if (rec.signature == signature && rec.device == device
                && rec.valid && rec.selectedName == variant) {
                if (rec.predicted && demotionObserver)
                    demotedPredictions.push_back(rec);
                invalidateLocked(rec);
                stampLocked(rec);
            }
        }
        if (!demotedPredictions.empty())
            observer = demotionObserver;
    }
    for (const auto &rec : demotedPredictions)
        observer(rec);
}

bool
SelectionStore::isBlacklisted(const std::string &signature,
                              const std::string &variant,
                              const std::string &device) const
{
    std::lock_guard<std::mutex> lock(mu);
    return blacklist.count(BlKey{signature, variant, device}) > 0;
}

std::vector<std::pair<std::string, std::string>>
SelectionStore::blacklistedVariants(const std::string &signature,
                                    const std::string &device) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &[key, e] : blacklist) {
        (void)key;
        if (e.signature == signature && e.device == device)
            out.emplace_back(e.variant, e.reason);
    }
    return out;
}

std::vector<BlacklistEntry>
SelectionStore::blacklistEntries() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<BlacklistEntry> out;
    out.reserve(blacklist.size());
    for (const auto &[key, e] : blacklist) {
        (void)key;
        out.push_back(e);
    }
    return out;
}

std::size_t
SelectionStore::blacklistSize() const
{
    std::lock_guard<std::mutex> lock(mu);
    return blacklist.size();
}

void
SelectionStore::setProfileObserver(
    std::function<void(const SelectionRecord &)> observer)
{
    std::lock_guard<std::mutex> lock(mu);
    profileObserver = std::move(observer);
}

void
SelectionStore::setDemotionObserver(
    std::function<void(const SelectionRecord &)> observer)
{
    std::lock_guard<std::mutex> lock(mu);
    demotionObserver = std::move(observer);
}

void
SelectionStore::setExtension(const std::string &name,
                             support::Json value)
{
    std::lock_guard<std::mutex> lock(mu);
    if (value.isNull()) {
        // Removal is local-only: no tombstones in the delta protocol,
        // so an erased extension does not propagate (peers keep their
        // copy until overwritten).
        extensions.erase(name);
        return;
    }
    ExtSlot &slot = extensions[name];
    slot.value = std::move(value);
    slot.stamp = bumpLocked();
    slot.seq = ++seq_;
}

std::optional<support::Json>
SelectionStore::extension(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = extensions.find(name);
    if (it == extensions.end())
        return std::nullopt;
    return it->second.value;
}

std::vector<ExtensionEntry>
SelectionStore::extensionEntries() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<ExtensionEntry> out;
    out.reserve(extensions.size());
    for (const auto &[name, slot] : extensions)
        out.push_back(ExtensionEntry{name, slot.value, slot.stamp});
    return out;
}

void
SelectionStore::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    recs.clear();
    blacklist.clear();
    extensions.clear();
}

std::size_t
SelectionStore::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recs.size();
}

std::vector<SelectionRecord>
SelectionStore::records() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<SelectionRecord> out;
    out.reserve(recs.size());
    for (const auto &[key, rec] : recs)
        out.push_back(rec);
    return out;
}

std::uint64_t
SelectionStore::driftInvalidations() const
{
    std::lock_guard<std::mutex> lock(mu);
    return drifts_;
}

std::uint64_t
SelectionStore::quarantineCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return quarantines_;
}

void
SelectionStore::setReplica(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu);
    replica_ = id;
}

std::uint32_t
SelectionStore::replica() const
{
    std::lock_guard<std::mutex> lock(mu);
    return replica_;
}

std::uint64_t
SelectionStore::lamportClock() const
{
    std::lock_guard<std::mutex> lock(mu);
    return lamport_;
}

std::uint64_t
SelectionStore::changeSeq() const
{
    std::lock_guard<std::mutex> lock(mu);
    return seq_;
}

SelectionStore::Changes
SelectionStore::changedSince(std::uint64_t seq) const
{
    std::lock_guard<std::mutex> lock(mu);
    Changes out;
    out.seqHigh = seq_;
    for (const auto &[key, rec] : recs) {
        (void)key;
        if (rec.seq > seq)
            out.records.push_back(rec);
    }
    for (const auto &[key, e] : blacklist) {
        (void)key;
        if (e.seq > seq)
            out.blacklist.push_back(e);
    }
    for (const auto &[name, slot] : extensions) {
        if (slot.seq > seq)
            out.extensions.push_back(
                ExtensionEntry{name, slot.value, slot.stamp});
    }
    return out;
}

SelectionStore::Apply
SelectionStore::applyRemoteRecord(const SelectionRecord &in)
{
    std::lock_guard<std::mutex> lock(mu);
    if (in.stamp.tick > lamport_)
        lamport_ = in.stamp.tick;
    Key key{in.signature, in.device, in.bucket};
    auto it = recs.find(key);
    if (it == recs.end()) {
        SelectionRecord rec = in;
        rec.seq = ++seq_;
        recs.emplace(std::move(key), std::move(rec));
        return Apply::Applied;
    }
    SelectionRecord &local = it->second;
    const bool remoteWins = fed::newerStamp(in.stamp, local.stamp);
    if (!remoteWins && local.vv.contains(in.vv))
        return Apply::Stale;
    SelectionRecord merged = fed::mergeRecord(local, in);
    merged.seq = ++seq_;
    local = std::move(merged);
    return remoteWins ? Apply::Applied : Apply::Merged;
}

SelectionStore::Apply
SelectionStore::applyRemoteBlacklist(const BlacklistEntry &in)
{
    std::lock_guard<std::mutex> lock(mu);
    if (in.stamp.tick > lamport_)
        lamport_ = in.stamp.tick;
    BlKey key{in.signature, in.variant, in.device};
    Apply result = Apply::Applied;
    auto it = blacklist.find(key);
    if (it == blacklist.end()) {
        BlacklistEntry e = in;
        e.seq = ++seq_;
        blacklist.emplace(std::move(key), std::move(e));
    } else {
        BlacklistEntry &local = it->second;
        if (!fed::newerStamp(in.stamp, local.stamp)) {
            if (in.strikes <= local.strikes)
                return Apply::Stale;
            // Local stamp (reason, provenance) holds; only the
            // grow-only strike count absorbs the remote evidence.
            result = Apply::Merged;
        }
        BlacklistEntry merged = fed::mergeBlacklist(local, in);
        merged.seq = ++seq_;
        local = std::move(merged);
    }
    // Mirror blacklistVariant(): any valid record still serving the
    // blacklisted variant is invalidated -- a replicated strike must
    // stop warm starts here just like a local one.  No observers:
    // replicated evidence is not a local mis-prediction.
    for (auto &[k, rec] : recs) {
        (void)k;
        if (rec.signature == in.signature && rec.device == in.device
            && rec.valid && rec.selectedName == in.variant) {
            invalidateLocked(rec);
            stampLocked(rec);
        }
    }
    return result;
}

SelectionStore::Apply
SelectionStore::applyRemoteExtension(const ExtensionEntry &in)
{
    std::lock_guard<std::mutex> lock(mu);
    if (in.stamp.tick > lamport_)
        lamport_ = in.stamp.tick;
    auto it = extensions.find(in.name);
    if (it == extensions.end()) {
        ExtSlot slot;
        slot.value = in.value;
        slot.stamp = in.stamp;
        slot.seq = ++seq_;
        extensions.emplace(in.name, std::move(slot));
        return Apply::Applied;
    }
    ExtSlot &local = it->second;
    if (!fed::newerStamp(in.stamp, local.stamp))
        return Apply::Stale;
    local.value = in.value;
    local.stamp = in.stamp;
    local.seq = ++seq_;
    return Apply::Applied;
}

Json
SelectionStore::toJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    Json arr = Json::array();
    for (const auto &[key, rec] : recs) {
        (void)key;
        arr.push(recordToJson(rec));
    }
    Json blarr = Json::array();
    for (const auto &[key, e] : blacklist) {
        (void)key;
        blarr.push(blacklistToJson(e));
    }
    Json root = Json::object();
    root.set("version", Json(5));
    root.set("records", std::move(arr));
    root.set("blacklist", std::move(blarr));
    if (!extensions.empty()) {
        Json ext = Json::object();
        Json stamps = Json::object();
        for (const auto &[name, slot] : extensions) {
            ext.set(name, slot.value);
            Json js = Json::object();
            js.set("tick", Json(slot.stamp.tick));
            js.set("origin", Json(slot.stamp.origin));
            stamps.set(name, std::move(js));
        }
        root.set("extensions", std::move(ext));
        root.set("extension_stamps", std::move(stamps));
    }
    return root;
}

void
SelectionStore::loadJson(const Json &doc)
{
    // Version 2 added the quarantine fields; version 3 the variant
    // blacklist; version 4 the predicted-selection fields and the
    // extensions object; version 5 the federation envelope (Lamport
    // stamps, version vectors, profiling provenance).  Older
    // documents load with the missing state at rest.
    const auto version = doc.isObject() ? doc.intOr("version", 0) : 0;
    if (version < 1 || version > 5)
        throw std::runtime_error(
            "selection store: unsupported document version");
    std::map<Key, SelectionRecord> loaded;
    for (const Json &jr : doc.at("records").items()) {
        SelectionRecord rec = recordFromJson(jr);
        Key key{rec.signature, rec.device, rec.bucket};
        loaded[std::move(key)] = std::move(rec);
    }
    std::map<BlKey, BlacklistEntry> loadedBl;
    if (doc.has("blacklist")) {
        for (const Json &jb : doc.at("blacklist").items()) {
            BlacklistEntry e = blacklistFromJson(jb);
            BlKey key{e.signature, e.variant, e.device};
            loadedBl[std::move(key)] = std::move(e);
        }
    }
    std::map<std::string, ExtSlot> loadedExt;
    if (doc.has("extensions")) {
        for (const auto &[name, value] : doc.at("extensions").fields()) {
            ExtSlot slot;
            slot.value = value;
            if (doc.has("extension_stamps")
                && doc.at("extension_stamps").has(name)) {
                const Json &js = doc.at("extension_stamps").at(name);
                slot.stamp.tick = js.intOr("tick", 0);
                slot.stamp.origin = static_cast<std::uint32_t>(
                    js.intOr("origin", 0));
            }
            loadedExt[name] = std::move(slot);
        }
    }
    // Everything parsed; only now replace the contents (a malformed
    // document above must not leave a half-loaded store).
    std::lock_guard<std::mutex> lock(mu);
    recs = std::move(loaded);
    blacklist = std::move(loadedBl);
    extensions = std::move(loadedExt);
    // Restore the Lamport clock from the loaded stamps so new local
    // writes outrank everything in the document, and stamp anything a
    // pre-federation document left unstamped -- two replicas seeded
    // from the same legacy file must not present identical stamps
    // over possibly-diverging payloads.
    for (const auto &[key, rec] : recs) {
        (void)key;
        if (rec.stamp.tick > lamport_)
            lamport_ = rec.stamp.tick;
    }
    for (const auto &[key, e] : blacklist) {
        (void)key;
        if (e.stamp.tick > lamport_)
            lamport_ = e.stamp.tick;
    }
    for (const auto &[name, slot] : extensions) {
        (void)name;
        if (slot.stamp.tick > lamport_)
            lamport_ = slot.stamp.tick;
    }
    for (auto &[key, rec] : recs) {
        (void)key;
        if (rec.stamp.tick == 0)
            stampLocked(rec);
        else
            rec.seq = ++seq_;
    }
    for (auto &[key, e] : blacklist) {
        (void)key;
        if (e.stamp.tick == 0)
            e.stamp = bumpLocked();
        e.seq = ++seq_;
    }
    for (auto &[name, slot] : extensions) {
        (void)name;
        if (slot.stamp.tick == 0)
            slot.stamp = bumpLocked();
        slot.seq = ++seq_;
    }
}

namespace {

/** FNV-1a 64-bit hash, the file-content checksum. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** 16-hex-digit rendering of @p h. */
std::string
hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

support::Status
ioError(const std::string &what, const std::string &path)
{
    return support::Status::unavailable(
        "selection store: " + what + " '" + path + "': "
        + std::strerror(errno));
}

} // namespace

support::Status
SelectionStore::saveFile(const std::string &path) const
{
    // The checksum covers the compact dump of the payload; dump() is
    // deterministic (sorted keys, stable number formatting), so a
    // loader can re-dump the parsed payload and compare.
    const Json payload = toJson();
    Json root = Json::object();
    root.set("checksum", Json(hex16(fnv1a64(payload.dump(0)))));
    root.set("payload", payload);
    const std::string text = root.dump(2) + "\n";

    // Crash-safe sequence: write a sibling temp file, fsync it, then
    // atomically rename over the target.  A crash anywhere in between
    // leaves the previous file intact.
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        return ioError("cannot create", tmp);
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return ioError("cannot write", tmp);
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return ioError("cannot fsync", tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return ioError("cannot close", tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return ioError("cannot rename over", path);
    }
    return support::Status();
}

support::Status
SelectionStore::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return support::Status::notFound(
            "selection store: cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();

    Json doc;
    try {
        doc = Json::parse(buf.str());
    } catch (const std::exception &e) {
        return support::Status::dataLoss(
            "selection store: '" + path + "' is not valid JSON ("
            + e.what() + "); file truncated or corrupt");
    }
    try {
        if (doc.isObject() && doc.has("checksum")) {
            const std::string want = doc.at("checksum").asString();
            const Json &payload = doc.at("payload");
            const std::string got = hex16(fnv1a64(payload.dump(0)));
            if (got != want)
                return support::Status::dataLoss(
                    "selection store: '" + path + "' failed its "
                    "content checksum (expected " + want + ", got "
                    + got + "); refusing to load corrupt data");
            loadJson(payload);
        } else {
            // Legacy naked document (pre-checksum saveFile).
            loadJson(doc);
        }
    } catch (const std::exception &e) {
        return support::Status::dataLoss(
            "selection store: '" + path + "': " + e.what());
    }
    return support::Status();
}

} // namespace store
} // namespace dysel
