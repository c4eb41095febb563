/**
 * @file
 * Learned selection: an online predictor that skips micro-profiling.
 *
 * Micro-profiling is DySel's ground truth, but at serving scale it is
 * the dominant cold-start cost: every cold (signature, device
 * fingerprint, size-bucket) key pays a full profiling pass even when
 * the store already holds the answer for a structurally identical
 * kernel one bucket over.  The SelectionPredictor turns the store's
 * own profiling history into warm starts for keys the store has never
 * seen, trained online from every completed profiling pass the store
 * records (SelectionStore::setProfileObserver -- the training feed;
 * there is no parallel log).
 *
 * The store is the predictor's only memory of winners.  Two evidence
 * sources back a prediction, strongest first:
 *
 *   interpolated -- a valid, measured record at a neighbouring size
 *                   bucket, read from the store, seeds this bucket at
 *                   confidence decayed per bucket of distance
 *                   (cross-bucket interpolation);
 *   model        -- a per-device-class linear model over the kernel
 *                   feature vector (features.hh), updated
 *                   perceptron-style from every training example, for
 *                   keys with no measured neighbour at all.
 *
 * Every raw confidence is multiplied by a *calibration* factor: the
 * predictor shadow-evaluates itself against each incoming training
 * example (would I have predicted this winner?) and keeps a smoothed
 * hit rate.  Mis-predictions demoted by the serving layer
 * (setDemotionObserver) push the model away from the demoted variant
 * and charge extra shadow misses -- a predictor that keeps being
 * wrong talks itself below the confidence threshold and the service
 * falls back to plain micro-profiling.
 *
 * The store alone decides when a prediction may stand in for a
 * profile: SelectionStore::seedPrediction seeds only keys it has never
 * seen, so every invalidation leads to a profile.
 *
 * All public methods are thread-safe; the dispatch service consults
 * one predictor from all device workers.  Store reads happen before
 * the predictor's mutex is taken, so the two locks never nest.
 * toJson()/loadJson() persist the learned state; the serving layer
 * stores it in the selection store's "predictor" extension slot so
 * one file carries both the records and the model.
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "compiler/kernel_info.hh"
#include "dysel/store/selection_store.hh"
#include "support/json.hh"

#include "features.hh"

namespace dysel {
namespace predict {

/** Predictor configuration (the learning constants live in
 * predictor.cc). */
struct PredictorConfig
{
    /**
     * Calibrated confidence a prediction needs before the serving
     * layer acts on it (skips profiling); below it the job falls
     * back to micro-profiling.
     */
    double threshold = 0.65;
};

/** Which evidence source backed a prediction. */
enum class Source {
    Interpolated, ///< a neighbouring bucket's measured store record
    Model,        ///< the per-device-class linear model
};

/** Stable lower-case name of @p source (e.g. "interpolated"). */
const char *sourceName(Source source);

/** One actionable prediction. */
struct Prediction
{
    std::string variant; ///< predicted winning variant (by name)
    double confidence = 0.0; ///< calibrated, in [0, 1]
    Source source = Source::Model;
    /** Bucket distance of the seeding record (0 unless interpolated). */
    unsigned distance = 0;
};

/**
 * The online selection predictor.
 */
class SelectionPredictor
{
  public:
    explicit SelectionPredictor(PredictorConfig cfg = PredictorConfig());

    const PredictorConfig &config() const { return cfg_; }

    /**
     * Attach kernel-structure features for @p signature (idempotent;
     * typically called with Runtime::findKernelInfo() output on the
     * serving path).  Signatures without features still interpolate
     * from measured neighbours; only the model's generalization
     * suffers.
     */
    void noteKernel(const std::string &signature,
                    const compiler::KernelInfo &info);

    /**
     * Predict the winning variant for (@p signature, @p fingerprint,
     * @p bucket), or nullopt when no evidence source has anything to
     * say.  Neighbouring buckets' measured records come from
     * @p store.  The caller compares Prediction::confidence against
     * config().threshold -- predictions below it are still returned
     * (shadow evaluation and diagnostics want them).
     */
    std::optional<Prediction> predict(const store::SelectionStore &store,
                                      const std::string &signature,
                                      const std::string &fingerprint,
                                      unsigned bucket) const;

    /**
     * Training feed: one completed profiling pass, as recorded by
     * @p store.  Shadow-evaluates the predictor against the example
     * (calibration), then updates the model.  Wired to
     * SelectionStore::setProfileObserver by the serving layer.
     */
    void observeProfile(const store::SelectionStore &store,
                        const store::SelectionRecord &rec);

    /**
     * Corrective feed: a *predicted* selection misbehaved (launch
     * failure, drift, blacklist) and was demoted to a forced
     * re-profile; @p rec is the record as it was before demotion.
     * Pushes the model away from the demoted variant and charges the
     * calibration penalty.  The re-profile that follows lands back in
     * observeProfile() as the corrective example.
     */
    void observeDemotion(const store::SelectionRecord &rec);

    /** Training examples consumed (observeProfile calls). */
    std::uint64_t trainingExamples() const;

    /** Demotions consumed (observeDemotion calls). */
    std::uint64_t demotions() const;

    /**
     * Current calibration factor in [0, 1]: the smoothed shadow hit
     * rate every raw confidence is multiplied by.
     */
    double calibration() const;

    /** Drop all learned state (model, calibration, features). */
    void clear();

    /** Serialize the learned state (deterministic order). */
    support::Json toJson() const;

    /**
     * Replace the learned state from toJson() output.  Throws
     * std::runtime_error on a malformed document; the previous state
     * is left untouched.  A "winners" array (written by older
     * versions) is ignored: the store holds the winners.  The config
     * is not persisted -- thresholds are operator knobs, not learned
     * state.
     */
    void loadJson(const support::Json &doc);

  private:
    /** (device class, variant name). */
    using ClassVariant = std::pair<unsigned, std::string>;

    /**
     * Calibrated prediction from @p neighbour (the nearest measured
     * record, uncalibrated) or, without one, from the model.  Caller
     * holds the lock.
     */
    std::optional<Prediction>
    predictLocked(const std::optional<Prediction> &neighbour,
                  const std::string &signature,
                  const std::string &fingerprint, unsigned bucket) const;

    /** Feature vector of one prediction key.  Caller holds the lock. */
    FeatureVector featuresLocked(const std::string &signature,
                                 unsigned bucket,
                                 unsigned deviceClass) const;

    double calibrationLocked() const;

    mutable std::mutex mu;
    PredictorConfig cfg_;
    /** Kernel-structure features per signature (noteKernel). */
    std::map<std::string, FeatureVector> kernelFeats;
    /** Linear model: one weight vector per (device class, variant). */
    std::map<ClassVariant, FeatureVector> weights;
    std::uint64_t examples_ = 0;
    std::uint64_t demotions_ = 0;
    double shadowCorrect_ = 0.0;
    double shadowTotal_ = 0.0;
};

} // namespace predict
} // namespace dysel
