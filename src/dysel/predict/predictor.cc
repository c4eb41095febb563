#include "predictor.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dysel {
namespace predict {

using support::Json;

namespace {

// Learning constants; DESIGN §9 tabulates them.
constexpr double kLearningRate = 0.15;       // perceptron step
constexpr unsigned kInterpolationRadius = 2; // buckets a record seeds
constexpr double kInterpolationDecay = 0.8;  // confidence per bucket
constexpr double kMeasuredConfidence = 0.98; // raw, before the decay
constexpr double kModelCap = 0.9;            // raw model confidence cap
// Model margin under which a correct prediction still reinforces its
// winner (a classic perceptron only learns from mistakes).
constexpr double kReinforceMargin = 2.0;
// Calibration prior: the shadow hit rate starts at 8/9, below the
// measured confidence, until the predictor has earned trust.
constexpr double kPriorCorrect = 8.0;
constexpr double kPriorTotal = 9.0;
constexpr double kDemotionPenalty = 2.0; // shadow misses per demotion

/** Best-scoring variant of one device class, and the runner-up's
 * score. */
struct Ranking
{
    std::string argmax;
    double best = 0.0;
    double second = 0.0;
    bool any = false;
};

Ranking
rank(const std::map<std::pair<unsigned, std::string>, FeatureVector> &weights,
     unsigned cls, const FeatureVector &f)
{
    Ranking r;
    for (const auto &[key, w] : weights) {
        if (key.first != cls)
            continue;
        double score = 0.0;
        for (std::size_t i = 0; i < kFeatureDim; ++i)
            score += w[i] * f[i];
        if (!r.any || score > r.best) {
            r.second = r.any ? r.best : 0.0;
            r.best = score;
            r.argmax = key.second;
            r.any = true;
        } else if (score > r.second) {
            r.second = score;
        }
    }
    return r;
}

/**
 * Cross-bucket interpolation: the nearest valid, measured record of
 * the key within the radius (the lower bucket first at equal
 * distance), at uncalibrated confidence decayed per bucket of
 * distance.  Bucket arithmetic is clamped at both ends -- bucket 0 has
 * no lower neighbour and 63 no upper one; wrapping would alias
 * order-of-magnitude distant workload sizes (the exact mistake
 * bucketing exists to avoid).  Predicted records are not evidence: a
 * guess must not seed another guess.
 */
std::optional<Prediction>
interpolate(const store::SelectionStore &store,
            const std::string &signature, const std::string &fingerprint,
            unsigned bucket)
{
    auto measured = [&](unsigned b) -> std::optional<std::string> {
        auto rec =
            store.lookup(signature, fingerprint, store::unitsForBucket(b));
        if (!rec || rec->predicted)
            return std::nullopt;
        return std::move(rec->selectedName);
    };
    for (unsigned d = 1; d <= kInterpolationRadius; ++d) {
        auto variant = bucket >= d ? measured(bucket - d) : std::nullopt;
        if (!variant && bucket + d <= 63)
            variant = measured(bucket + d);
        if (variant) {
            return Prediction{
                std::move(*variant),
                kMeasuredConfidence
                    * std::pow(kInterpolationDecay, static_cast<double>(d)),
                Source::Interpolated, d};
        }
    }
    return std::nullopt;
}

} // namespace

const char *
sourceName(Source source)
{
    switch (source) {
      case Source::Interpolated: return "interpolated";
      case Source::Model: return "model";
    }
    return "?";
}

SelectionPredictor::SelectionPredictor(PredictorConfig cfg) : cfg_(cfg) {}

void
SelectionPredictor::noteKernel(const std::string &signature,
                               const compiler::KernelInfo &info)
{
    const FeatureVector f = kernelFeatures(info);
    std::lock_guard<std::mutex> lock(mu);
    kernelFeats[signature] = f;
}

double
SelectionPredictor::calibrationLocked() const
{
    const double c = (kPriorCorrect + shadowCorrect_)
                     / (kPriorTotal + shadowTotal_);
    return std::clamp(c, 0.0, 1.0);
}

FeatureVector
SelectionPredictor::featuresLocked(const std::string &signature,
                                   unsigned bucket,
                                   unsigned deviceClass) const
{
    auto it = kernelFeats.find(signature);
    const FeatureVector base =
        it != kernelFeats.end() ? it->second : FeatureVector{};
    return composeFeatures(base, bucket, deviceClass);
}

std::optional<Prediction>
SelectionPredictor::predictLocked(const std::optional<Prediction> &neighbour,
                                  const std::string &signature,
                                  const std::string &fingerprint,
                                  unsigned bucket) const
{
    std::optional<Prediction> best = neighbour;

    // Linear model: argmax over this device class's variant scores,
    // confidence from the margin over the runner-up (squashed, capped
    // below the measured confidence so measured neighbours always
    // outrank model guesses).
    if (!best) {
        const unsigned cls = deviceClassOf(fingerprint);
        const Ranking r =
            rank(weights, cls, featuresLocked(signature, bucket, cls));
        if (r.any) {
            const double conf =
                kModelCap / (1.0 + std::exp(-(r.best - r.second)));
            best = Prediction{r.argmax, conf, Source::Model, 0};
        }
    }

    if (best) {
        best->confidence =
            std::clamp(best->confidence * calibrationLocked(), 0.0, 1.0);
    }
    return best;
}

std::optional<Prediction>
SelectionPredictor::predict(const store::SelectionStore &store,
                            const std::string &signature,
                            const std::string &fingerprint,
                            unsigned bucket) const
{
    // Store reads first: the store and predictor locks never nest.
    const auto neighbour =
        interpolate(store, signature, fingerprint, bucket);
    std::lock_guard<std::mutex> lock(mu);
    return predictLocked(neighbour, signature, fingerprint, bucket);
}

void
SelectionPredictor::observeProfile(const store::SelectionStore &store,
                                   const store::SelectionRecord &rec)
{
    if (rec.selectedName.empty())
        return;
    const auto neighbour =
        interpolate(store, rec.signature, rec.device, rec.bucket);
    std::lock_guard<std::mutex> lock(mu);

    // Shadow evaluation first (against the model before this example
    // lands): would the predictor have called this winner?
    if (auto pred =
            predictLocked(neighbour, rec.signature, rec.device, rec.bucket)) {
        shadowTotal_ += 1.0;
        if (pred->variant == rec.selectedName)
            shadowCorrect_ += 1.0;
    }
    examples_++;

    // Perceptron update of the per-device-class model.
    const unsigned cls = deviceClassOf(rec.device);
    const FeatureVector f =
        featuresLocked(rec.signature, rec.bucket, cls);
    FeatureVector &wWin = weights[ClassVariant{cls, rec.selectedName}];
    const Ranking r = rank(weights, cls, f);
    if (r.argmax != rec.selectedName) {
        // Mistake: pull the winner up, push the impostor down.
        for (std::size_t i = 0; i < kFeatureDim; ++i)
            wWin[i] += kLearningRate * f[i];
        if (auto it = weights.find(ClassVariant{cls, r.argmax});
            it != weights.end()) {
            for (std::size_t i = 0; i < kFeatureDim; ++i)
                it->second[i] -= kLearningRate * f[i];
        }
    } else if (r.best - r.second < kReinforceMargin) {
        // Correct but not yet confident: reinforce toward the margin.
        for (std::size_t i = 0; i < kFeatureDim; ++i)
            wWin[i] += kLearningRate * f[i];
    }
}

void
SelectionPredictor::observeDemotion(const store::SelectionRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    demotions_++;
    shadowTotal_ += kDemotionPenalty;

    // Corrective model update: we know this variant was wrong for the
    // key even though we don't yet know what is right -- the forced
    // re-profile will supply that as a fresh training example.
    const unsigned cls = deviceClassOf(rec.device);
    if (auto it = weights.find(ClassVariant{cls, rec.selectedName});
        it != weights.end()) {
        const FeatureVector f =
            featuresLocked(rec.signature, rec.bucket, cls);
        for (std::size_t i = 0; i < kFeatureDim; ++i)
            it->second[i] -= kLearningRate * f[i];
    }
}

std::uint64_t
SelectionPredictor::trainingExamples() const
{
    std::lock_guard<std::mutex> lock(mu);
    return examples_;
}

std::uint64_t
SelectionPredictor::demotions() const
{
    std::lock_guard<std::mutex> lock(mu);
    return demotions_;
}

double
SelectionPredictor::calibration() const
{
    std::lock_guard<std::mutex> lock(mu);
    return calibrationLocked();
}

void
SelectionPredictor::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    kernelFeats.clear();
    weights.clear();
    examples_ = 0;
    demotions_ = 0;
    shadowCorrect_ = 0.0;
    shadowTotal_ = 0.0;
}

Json
SelectionPredictor::toJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    auto vec = [](const FeatureVector &v) {
        Json arr = Json::array();
        for (double x : v)
            arr.push(Json(x));
        return arr;
    };

    Json feats = Json::array();
    for (const auto &[sig, f] : kernelFeats) {
        Json jf = Json::object();
        jf.set("signature", Json(sig));
        jf.set("f", vec(f));
        feats.push(std::move(jf));
    }
    Json model = Json::array();
    for (const auto &[key, w] : weights) {
        Json jm = Json::object();
        jm.set("device_class", Json(key.first));
        jm.set("variant", Json(key.second));
        jm.set("w", vec(w));
        model.push(std::move(jm));
    }

    Json root = Json::object();
    root.set("version", Json(1));
    root.set("examples", Json(examples_));
    root.set("demotions", Json(demotions_));
    root.set("shadow_correct", Json(shadowCorrect_));
    root.set("shadow_total", Json(shadowTotal_));
    root.set("features", std::move(feats));
    root.set("weights", std::move(model));
    return root;
}

void
SelectionPredictor::loadJson(const Json &doc)
{
    const auto version = doc.isObject() ? doc.intOr("version", 0) : 0;
    if (version != 1)
        throw std::runtime_error(
            "selection predictor: unsupported document version");
    auto vec = [](const Json &arr) {
        FeatureVector v{};
        const auto &items = arr.items();
        if (items.size() != kFeatureDim)
            throw std::runtime_error(
                "selection predictor: feature dimension mismatch");
        for (std::size_t i = 0; i < kFeatureDim; ++i)
            v[i] = items[i].asNumber();
        return v;
    };

    std::map<std::string, FeatureVector> feats;
    if (doc.has("features")) {
        for (const Json &jf : doc.at("features").items())
            feats[jf.at("signature").asString()] = vec(jf.at("f"));
    }
    std::map<ClassVariant, FeatureVector> model;
    if (doc.has("weights")) {
        for (const Json &jm : doc.at("weights").items()) {
            model[ClassVariant{
                static_cast<unsigned>(jm.at("device_class").asUint()),
                jm.at("variant").asString()}] = vec(jm.at("w"));
        }
    }
    const auto examples =
        static_cast<std::uint64_t>(doc.intOr("examples", 0));
    const auto demotions =
        static_cast<std::uint64_t>(doc.intOr("demotions", 0));
    const double correct = doc.numberOr("shadow_correct", 0.0);
    const double total = doc.numberOr("shadow_total", 0.0);

    // Everything parsed; only now replace the state.
    std::lock_guard<std::mutex> lock(mu);
    kernelFeats = std::move(feats);
    weights = std::move(model);
    examples_ = examples;
    demotions_ = demotions;
    shadowCorrect_ = correct;
    shadowTotal_ = total;
}

} // namespace predict
} // namespace dysel
