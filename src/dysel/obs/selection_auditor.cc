#include "selection_auditor.hh"

#include <algorithm>
#include <cmath>

namespace dysel {
namespace obs {

std::uint64_t
AuditConfig::stride() const
{
    if (sampleRate <= 0.0)
        return 0;
    const double s = std::round(1.0 / std::min(1.0, sampleRate));
    return s < 1.0 ? 1 : static_cast<std::uint64_t>(s);
}

std::uint64_t
AuditConfig::probeUnits(std::uint64_t jobUnits) const
{
    std::uint64_t units = jobUnits / std::max<std::uint64_t>(
                              1, probeDivisor);
    units = std::clamp(units, probeUnitsMin, probeUnitsMax);
    units = std::min(units, jobUnits);
    return std::max<std::uint64_t>(1, units);
}

support::Status
AuditConfig::validate() const
{
    if (sampleRate < 0.0 || sampleRate > 1.0)
        return support::Status::invalidArgument(
            "AuditConfig: sampleRate must be in [0, 1]");
    if (!enabled())
        return support::Status();
    if (regretThreshold <= 0.0)
        return support::Status::invalidArgument(
            "AuditConfig: regretThreshold must be > 0");
    if (minSamples == 0)
        return support::Status::invalidArgument(
            "AuditConfig: minSamples must be >= 1");
    if (emaAlpha <= 0.0 || emaAlpha > 1.0)
        return support::Status::invalidArgument(
            "AuditConfig: emaAlpha must be in (0, 1]");
    if (probeUnitsMin == 0 || probeUnitsMax < probeUnitsMin)
        return support::Status::invalidArgument(
            "AuditConfig: probe unit clamp must satisfy "
            "1 <= probeUnitsMin <= probeUnitsMax");
    return support::Status();
}

SelectionAuditor::SelectionAuditor(store::SelectionStore &store,
                                   AuditConfig cfg)
    : store_(store), cfg_(std::move(cfg))
{
    cfg_.validate().throwIfError();
}

bool
SelectionAuditor::shouldSample()
{
    const std::uint64_t stride = cfg_.stride();
    if (stride == 0)
        return false;
    return eligible_.fetch_add(1, std::memory_order_relaxed) % stride
           == 0;
}

AuditVerdict
SelectionAuditor::ingest(const AuditSample &sample)
{
    AuditVerdict verdict;
    if (sample.winnerUnitNs <= 0 || sample.runnerUpUnitNs <= 0) {
        // Degenerate measurement (zero-length probe): treat as a
        // failed probe rather than scoring garbage.
        noteProbeFailure();
        verdict.probeFailed = true;
        return verdict;
    }
    const double best =
        std::min(sample.winnerUnitNs, sample.runnerUpUnitNs);
    verdict.regret = (sample.winnerUnitNs - best) / best;

    {
        std::lock_guard<std::mutex> lock(mu);
        KeyState &ks = keys[{sample.signature, sample.device,
                             store::bucketOf(sample.units)}];
        ks.samples++;
        ks.lastRegret = verdict.regret;
        ks.ema = ks.samples == 1
                     ? verdict.regret
                     : cfg_.emaAlpha * verdict.regret
                           + (1.0 - cfg_.emaAlpha) * ks.ema;
        verdict.keyEma = ks.ema;
        verdict.keySamples = ks.samples;
        verdict.demoted = ks.samples >= cfg_.minSamples
                          && ks.ema > cfg_.regretThreshold;
        if (verdict.demoted) {
            // Fresh start for whatever the quarantine serves next.
            ks.ema = 0;
            ks.samples = 0;
            ks.demotions++;
        }
        samples_++;
        regretSum_ += verdict.regret;
        if (verdict.demoted)
            demotions_++;
    }

    if (verdict.demoted) {
        // The existing quarantine path: the record serves its
        // runner-up for a cooldown, then re-profiles.  Called outside
        // the auditor lock -- the store fires observers of its own.
        verdict.observation = store_.reportFailure(
            sample.signature, sample.device, sample.units);
    }
    return verdict;
}

void
SelectionAuditor::noteProbeFailure()
{
    std::lock_guard<std::mutex> lock(mu);
    probeFailures_++;
}

std::uint64_t
SelectionAuditor::samples() const
{
    std::lock_guard<std::mutex> lock(mu);
    return samples_;
}

std::uint64_t
SelectionAuditor::demotions() const
{
    std::lock_guard<std::mutex> lock(mu);
    return demotions_;
}

std::uint64_t
SelectionAuditor::probeFailures() const
{
    std::lock_guard<std::mutex> lock(mu);
    return probeFailures_;
}

double
SelectionAuditor::meanRegret() const
{
    std::lock_guard<std::mutex> lock(mu);
    return samples_ == 0 ? 0.0
                         : regretSum_ / static_cast<double>(samples_);
}

support::Json
SelectionAuditor::toJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    support::Json cfg = support::Json::object();
    cfg.set("sample_rate", support::Json(cfg_.sampleRate));
    cfg.set("stride", support::Json(cfg_.stride()));
    cfg.set("regret_threshold", support::Json(cfg_.regretThreshold));
    cfg.set("min_samples", support::Json(cfg_.minSamples));
    cfg.set("ema_alpha", support::Json(cfg_.emaAlpha));

    support::Json keysJson = support::Json::array();
    for (const auto &[key, ks] : keys) {
        support::Json k = support::Json::object();
        k.set("signature", support::Json(std::get<0>(key)));
        k.set("device", support::Json(std::get<1>(key)));
        k.set("bucket", support::Json(
                            static_cast<std::uint64_t>(std::get<2>(key))));
        k.set("ema", support::Json(ks.ema));
        k.set("last_regret", support::Json(ks.lastRegret));
        k.set("samples", support::Json(ks.samples));
        k.set("demotions", support::Json(ks.demotions));
        keysJson.push(std::move(k));
    }

    support::Json root = support::Json::object();
    root.set("config", std::move(cfg));
    root.set("samples", support::Json(samples_));
    root.set("demotions", support::Json(demotions_));
    root.set("probe_failures", support::Json(probeFailures_));
    root.set("mean_regret",
             support::Json(samples_ == 0
                               ? 0.0
                               : regretSum_
                                     / static_cast<double>(samples_)));
    root.set("keys", std::move(keysJson));
    return root;
}

} // namespace obs
} // namespace dysel
