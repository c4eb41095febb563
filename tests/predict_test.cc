/**
 * @file
 * Tests for learned selection: feature extraction, the two evidence
 * sources (cross-bucket interpolation from the store's measured
 * records, linear model), calibration collapse under mis-predictions,
 * model correction on demotion, model persistence, and the
 * dispatch-service integration -- confident predictions skip
 * micro-profiling entirely, low-confidence keys fall back to it, a key
 * the store invalidated is always re-profiled, and a seeded launch
 * fault on a predicted selection demotes it back to a forced profile
 * with the predict.* counters reconciling 1:1 against the injector
 * log.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dysel/predict/predictor.hh"
#include "serve/dispatch_service.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"
#include "submit_one.hh"

using namespace dysel;
using namespace dysel::predict;
using namespace dysel::serve;

namespace {

constexpr const char *kCpuDev = "cpu/test-device/c8@3.60GHz";
constexpr const char *kGpuDev = "gpu/test-device/sm64@1.50GHz";

/** A two-loop kernel: one work-item loop, one inner reduction. */
compiler::KernelInfo
sampleInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {
        {"wi", compiler::BoundKind::Constant, true, false, 1024},
        {"k", compiler::BoundKind::Param, false, false, 64},
    };
    compiler::AccessPattern read;
    read.argIndex = 0;
    read.coeffs = {1, 0};
    compiler::AccessPattern write;
    write.argIndex = 1;
    write.write = true;
    write.coeffs = {1, 0};
    info.accesses = {read, write};
    info.outputArgs = {1};
    return info;
}

/** A record as the store's feeds deliver it. */
store::SelectionRecord
example(const std::string &sig, const std::string &dev, unsigned bucket,
        const std::string &winner)
{
    store::SelectionRecord rec;
    rec.signature = sig;
    rec.device = dev;
    rec.bucket = bucket;
    rec.selected = 0;
    rec.selectedName = winner;
    return rec;
}

/**
 * A predictor trained from a store's profile feed, wired the way the
 * serving layer wires it: the store holds the measured winners, the
 * predictor learns from each profiling pass the store records.
 */
struct Trained
{
    store::SelectionStore store;
    SelectionPredictor p;

    explicit Trained(PredictorConfig cfg = PredictorConfig()) : p(cfg)
    {
        store.setProfileObserver([this](const store::SelectionRecord &r) {
            p.observeProfile(store, r);
        });
    }

    /** One profiling pass of (@p sig, @p dev, @p bucket) that picked
     * @p winner. */
    void profile(const std::string &sig, const std::string &dev,
                 unsigned bucket, const std::string &winner)
    {
        runtime::LaunchReport r;
        r.signature = sig;
        r.profiled = true;
        r.totalUnits = store::unitsForBucket(bucket);
        r.selected = 0;
        r.selectedName = winner;
        r.profiles = {{winner, 1000, 1100, 950, 128}};
        store.recordProfile(dev, r);
    }

    std::optional<Prediction> predict(const std::string &sig,
                                      const std::string &dev,
                                      unsigned bucket) const
    {
        return p.predict(store, sig, dev, bucket);
    }
};

/** The model's weight vector of (@p cls, @p variant) in @p doc. */
std::vector<double>
weightsOf(const support::Json &doc, unsigned cls, const std::string &variant)
{
    std::vector<double> w;
    for (const support::Json &jm : doc.at("weights").items()) {
        if (jm.at("device_class").asUint() == cls
            && jm.at("variant").asString() == variant) {
            for (const support::Json &x : jm.at("w").items())
                w.push_back(x.asNumber());
        }
    }
    return w;
}

} // namespace

TEST(Features, DeviceClassParsesFingerprints)
{
    EXPECT_EQ(deviceClassOf(kCpuDev), 0u);
    EXPECT_EQ(deviceClassOf(kGpuDev), 1u);
    EXPECT_EQ(deviceClassOf("tpu/foo"), 2u);
    EXPECT_EQ(deviceClassOf("noslash"), 2u);
    EXPECT_EQ(deviceClassOf(""), 2u);
}

TEST(Features, KernelFeaturesAreNormalized)
{
    const FeatureVector f = kernelFeatures(sampleInfo("k"));
    for (std::size_t i = 0; i < kFeatureDim; ++i) {
        EXPECT_GE(f[i], 0.0) << featureName(i);
        EXPECT_LE(f[i], 1.0) << featureName(i);
    }
    EXPECT_DOUBLE_EQ(f[0], 1.0); // bias
    // One of the two loops iterates work-items; one of the two
    // accesses writes; both are affine.
    EXPECT_DOUBLE_EQ(f[4], 0.5);  // workitem_frac
    EXPECT_DOUBLE_EQ(f[9], 0.5);  // write_frac
    EXPECT_DOUBLE_EQ(f[10], 1.0); // affine_frac
    EXPECT_DOUBLE_EQ(f[5], 0.0);  // no irregular loops

    // Same structure, different signature: identical features (that
    // is what lets model evidence transfer across signatures).
    EXPECT_EQ(f, kernelFeatures(sampleInfo("other")));
}

TEST(Features, ComposeClampsBucketAndClass)
{
    const FeatureVector base{};
    const FeatureVector f = composeFeatures(base, 100, 7);
    EXPECT_DOUBLE_EQ(f[1], 63.0 / 64.0); // bucket clamped to 63
    EXPECT_DOUBLE_EQ(f[11], 1.0);        // class clamped to 2
    const FeatureVector g = composeFeatures(base, 9, 1);
    EXPECT_DOUBLE_EQ(g[1], 9.0 / 64.0);
    EXPECT_DOUBLE_EQ(g[11], 0.5);
}

TEST(Predictor, MeasuredNeighbourPredictsAboveThreshold)
{
    Trained t;
    EXPECT_FALSE(t.predict("k", kCpuDev, 11).has_value());

    t.profile("k", kCpuDev, 10, "fast");
    EXPECT_EQ(t.p.trainingExamples(), 1u);
    // The winner lives in the store only.
    EXPECT_EQ(t.store.size(), 1u);

    const auto pred = t.predict("k", kCpuDev, 11);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(pred->variant, "fast");
    EXPECT_EQ(pred->source, Source::Interpolated);
    EXPECT_EQ(pred->distance, 1u);
    // 0.98 * 0.8 per bucket * the calibration prior (8/9) clears the
    // gate.
    EXPECT_GE(pred->confidence, t.p.config().threshold);
    EXPECT_LT(pred->confidence, 1.0);

    // Different device fingerprint: the record does not apply; the
    // model has no GPU-class weights either.
    EXPECT_FALSE(t.predict("k", kGpuDev, 11).has_value());
}

TEST(Predictor, InterpolationDecaysWithDistance)
{
    Trained t;
    t.profile("k", kCpuDev, 10, "fast");

    const auto d1 = t.predict("k", kCpuDev, 11);
    const auto d2 = t.predict("k", kCpuDev, 12);
    ASSERT_TRUE(d1.has_value());
    ASSERT_TRUE(d2.has_value());
    EXPECT_EQ(d1->source, Source::Interpolated);
    EXPECT_EQ(d2->source, Source::Interpolated);
    EXPECT_EQ(d1->variant, "fast");
    EXPECT_EQ(d1->distance, 1u);
    EXPECT_EQ(d2->distance, 2u);
    EXPECT_GT(d1->confidence, d2->confidence);
    // One bucket away still clears the default gate, and outranks
    // what the model alone says about the measured bucket.
    EXPECT_GE(d1->confidence, t.p.config().threshold);
    const auto self = t.predict("k", kCpuDev, 10);
    ASSERT_TRUE(self.has_value());
    EXPECT_EQ(self->source, Source::Model);
    EXPECT_GT(d1->confidence, self->confidence);

    // Beyond the radius only the (weak) model speaks.
    const auto d3 = t.predict("k", kCpuDev, 13);
    ASSERT_TRUE(d3.has_value());
    EXPECT_EQ(d3->source, Source::Model);
    EXPECT_LT(d3->confidence, t.p.config().threshold);

    // The nearer neighbour wins when both sides have records.
    t.profile("k", kCpuDev, 13, "slow");
    const auto mid = t.predict("k", kCpuDev, 12);
    ASSERT_TRUE(mid.has_value());
    EXPECT_EQ(mid->variant, "slow"); // distance 1 beats distance 2
    EXPECT_EQ(mid->distance, 1u);
}

TEST(Predictor, InterpolationReadsOnlyValidMeasuredRecords)
{
    Trained t;
    t.profile("k", kCpuDev, 10, "fast");
    ASSERT_EQ(t.predict("k", kCpuDev, 11)->source, Source::Interpolated);

    // An invalidated record is no evidence...
    t.store.invalidate("k", kCpuDev, 10);
    const auto gone = t.predict("k", kCpuDev, 11);
    ASSERT_TRUE(gone.has_value());
    EXPECT_EQ(gone->source, Source::Model);

    // ...and neither is a predicted one: a guess never seeds a guess.
    t.store.seedPrediction("k", kCpuDev, store::unitsForBucket(12), 0,
                           "fast", 0.9);
    const auto guessed = t.predict("k", kCpuDev, 13);
    ASSERT_TRUE(guessed.has_value());
    EXPECT_EQ(guessed->source, Source::Model);
}

TEST(Predictor, InterpolationClampsAtBucketEdges)
{
    // Records at the extreme buckets: neighbour arithmetic must clamp,
    // not wrap -- a bucket-0 winner seeding bucket 63 (or vice versa)
    // would alias workload sizes 2^63 apart.
    Trained t;
    t.profile("lo", kCpuDev, 0, "fast");
    t.profile("hi", kCpuDev, 63, "slow");

    const auto up = t.predict("lo", kCpuDev, 1);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->source, Source::Interpolated);
    EXPECT_EQ(up->distance, 1u);

    const auto down = t.predict("hi", kCpuDev, 62);
    ASSERT_TRUE(down.has_value());
    EXPECT_EQ(down->source, Source::Interpolated);
    EXPECT_EQ(down->distance, 1u);

    // Across the space: no interpolation evidence (the model may
    // still answer, but never with a recorded-winner source).
    const auto far = t.predict("lo", kCpuDev, 63);
    if (far.has_value()) {
        EXPECT_EQ(far->source, Source::Model);
    }
    const auto near0 = t.predict("hi", kCpuDev, 0);
    if (near0.has_value()) {
        EXPECT_EQ(near0->source, Source::Model);
    }
}

TEST(Predictor, ModelGeneralizesAcrossSignatures)
{
    Trained t;
    // Two structurally identical kernels on the same device class:
    // training examples for one build model evidence for the other.
    t.p.noteKernel("a", sampleInfo("a"));
    t.p.noteKernel("b", sampleInfo("b"));
    for (int i = 0; i < 8; ++i)
        t.profile("a", kCpuDev, 10, "fast");

    const auto pred = t.predict("b", kCpuDev, 10);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(pred->source, Source::Model);
    EXPECT_EQ(pred->variant, "fast");
    EXPECT_GT(pred->confidence, 0.0);
    // The model is capped (raw 0.9) below what a measured record
    // carries (raw 0.98).
    EXPECT_LT(pred->confidence, 0.9 * t.p.calibration());
}

TEST(Predictor, CalibrationCollapsesUnderDemotions)
{
    Trained t;
    t.profile("k", kCpuDev, 10, "fast");
    ASSERT_GE(t.predict("k", kCpuDev, 11)->confidence,
              t.p.config().threshold);
    const double before = t.p.calibration();

    // Each demotion charges the demotion penalty in shadow misses; a
    // predictor that keeps being wrong talks itself below the gate
    // even where it still has a measured neighbour.
    for (int i = 0; i < 5; ++i)
        t.p.observeDemotion(example("other", kCpuDev,
                                    20 + static_cast<unsigned>(i), "fast"));
    EXPECT_EQ(t.p.demotions(), 5u);
    EXPECT_LT(t.p.calibration(), before);
    EXPECT_LT(t.p.calibration(), 0.5);
    const auto pred = t.predict("k", kCpuDev, 11);
    ASSERT_TRUE(pred.has_value()); // still has an opinion...
    EXPECT_LT(pred->confidence, t.p.config().threshold); // ...ungated
}

TEST(Predictor, DemotionPenalizesAndReprofileReestablishes)
{
    Trained t;
    t.profile("k", kCpuDev, 10, "fast");
    ASSERT_EQ(t.predict("k", kCpuDev, 11)->source, Source::Interpolated);

    // The serving layer seeded (k, 11) from that neighbour, and the
    // seed misbehaved: the demotion costs calibration, so the same
    // evidence no longer clears the gate.
    t.p.observeDemotion(example("k", kCpuDev, 11, "fast"));
    const auto pred = t.predict("k", kCpuDev, 11);
    if (pred.has_value()) {
        EXPECT_LT(pred->confidence, t.p.config().threshold);
    }

    // The corrective re-profile records the (new) winner, which now
    // backs its neighbours.
    t.profile("k", kCpuDev, 11, "slow");
    const auto fixed = t.predict("k", kCpuDev, 12);
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(fixed->source, Source::Interpolated);
    EXPECT_EQ(fixed->variant, "slow");
}

TEST(Predictor, DemotingAnInterpolatedPredictionCorrectsTheModel)
{
    Trained t;
    t.p.noteKernel("k", sampleInfo("k"));
    t.profile("k", kCpuDev, 10, "fast");
    const auto seed = t.predict("k", kCpuDev, 11);
    ASSERT_TRUE(seed.has_value());
    ASSERT_EQ(seed->source, Source::Interpolated);
    const std::vector<double> before =
        weightsOf(t.p.toJson(), 0, "fast");
    ASSERT_EQ(before.size(), kFeatureDim);

    // The demoted record names the variant that was wrong; the model
    // moves away from it by one learning step along the key's
    // features.
    t.p.observeDemotion(example("k", kCpuDev, 11, "fast"));
    const std::vector<double> after = weightsOf(t.p.toJson(), 0, "fast");
    ASSERT_EQ(after.size(), kFeatureDim);
    const FeatureVector f =
        composeFeatures(kernelFeatures(sampleInfo("k")), 11, 0);
    for (std::size_t i = 0; i < kFeatureDim; ++i)
        EXPECT_DOUBLE_EQ(after[i], before[i] - 0.15 * f[i])
            << featureName(i);
    EXPECT_LT(after[0], before[0]); // the bias always moves
}

TEST(Predictor, PersistenceRoundTrip)
{
    Trained t;
    t.p.noteKernel("k", sampleInfo("k"));
    t.profile("k", kCpuDev, 10, "fast");
    t.profile("k", kCpuDev, 12, "slow");
    t.p.observeDemotion(example("k", kCpuDev, 11, "slow"));

    SelectionPredictor q;
    q.loadJson(t.p.toJson());
    EXPECT_EQ(q.trainingExamples(), t.p.trainingExamples());
    EXPECT_EQ(q.demotions(), t.p.demotions());
    EXPECT_DOUBLE_EQ(q.calibration(), t.p.calibration());
    // The document carries no winners: the store holds them.
    EXPECT_FALSE(t.p.toJson().has("winners"));
    EXPECT_EQ(q.toJson().dump(), t.p.toJson().dump());
    for (unsigned b = 8; b <= 14; ++b) {
        const auto a = t.predict("k", kCpuDev, b);
        const auto c = q.predict(t.store, "k", kCpuDev, b);
        ASSERT_EQ(a.has_value(), c.has_value()) << "bucket " << b;
        if (a.has_value()) {
            EXPECT_EQ(a->variant, c->variant) << "bucket " << b;
            EXPECT_DOUBLE_EQ(a->confidence, c->confidence)
                << "bucket " << b;
            EXPECT_EQ(a->source, c->source) << "bucket " << b;
        }
    }
}

TEST(Predictor, LoadsOlderDocumentIgnoringWinners)
{
    // A document in the format written before the store became the
    // only memory of winners: it still loads, its "winners" are
    // ignored, and its model, calibration and examples are intact.
    const std::string doc = std::string(R"({
  "version": 1,
  "examples": 3,
  "demotions": 1,
  "shadow_correct": 2,
  "shadow_total": 4,
  "features": [],
  "winners": [
    {"signature": "k", "device": ")") + kCpuDev + R"(", "bucket": 10,
     "variant": "slow"}
  ],
  "weights": [
    {"device_class": 0, "variant": "fast",
     "w": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}
  ]
})";

    // Through a store file's "predictor" extension, as dyseld loads it.
    const std::string path = "predict_test.older.store.json";
    {
        store::SelectionStore st;
        st.setExtension("predictor", support::Json::parse(doc));
        ASSERT_TRUE(st.saveFile(path).ok());
    }
    store::SelectionStore loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok());
    std::remove(path.c_str());
    const auto ext = loaded.extension("predictor");
    ASSERT_TRUE(ext.has_value());

    SelectionPredictor p;
    p.loadJson(*ext);
    EXPECT_EQ(p.trainingExamples(), 3u);
    EXPECT_EQ(p.demotions(), 1u);
    EXPECT_DOUBLE_EQ(p.calibration(), (8.0 + 2.0) / (9.0 + 4.0));
    EXPECT_EQ(weightsOf(p.toJson(), 0, "fast").size(), kFeatureDim);
    EXPECT_FALSE(p.toJson().has("winners"));

    // The old winner does not serve the key: only the model speaks.
    const auto pred = p.predict(loaded, "k", kCpuDev, 10);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(pred->source, Source::Model);
    EXPECT_EQ(pred->variant, "fast");
}

TEST(Predictor, LoadRejectsMalformedDocumentsIntact)
{
    Trained t;
    t.profile("k", kCpuDev, 10, "fast");

    EXPECT_THROW(t.p.loadJson(support::Json::parse("{\"version\":99}")),
                 std::runtime_error);
    // Wrong feature dimensionality inside a weight vector.
    EXPECT_THROW(
        t.p.loadJson(support::Json::parse(
            R"({"version":1,"weights":[{"device_class":0,)"
            R"("variant":"fast","w":[1,2,3]}]})")),
        std::runtime_error);
    // The failed loads left the learned state untouched.
    EXPECT_EQ(t.p.trainingExamples(), 1u);
    EXPECT_TRUE(t.predict("k", kCpuDev, 10).has_value());

    // clear() drops everything the predictor learned.
    t.p.clear();
    EXPECT_EQ(t.p.trainingExamples(), 0u);
    EXPECT_FALSE(t.predict("k", kCpuDev, 10).has_value());
}

// ---------------------------------------------------------------------
// Dispatch-service integration.

namespace {

constexpr std::uint32_t laneCount = 8;
constexpr std::uint64_t kUnits = 512;

/**
 * Variant-invariant kernel: every variant writes 3*u + 7 into out[u],
 * so a profiling pass that splits units across variants, a warm
 * launch, and a predicted launch all produce identical bytes; only
 * the flops cost differs.
 */
kdp::KernelVariant
workKernel(const char *name, std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [flops_per_unit](kdp::GroupCtx &g,
                            const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, static_cast<std::int32_t>(3 * u + 7), lane);
            g.flops(lane, flops_per_unit);
        }
    };
    return v;
}

compiler::KernelInfo
regularInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

/** Service harness: devices share a fingerprint (identical CPUs). */
struct Harness
{
    store::SelectionStore store;
    SelectionPredictor predictor;
    DispatchService svc;
    sim::FaultInjector faults;

    explicit Harness(unsigned devices = 2,
                     ServiceConfig cfg = ServiceConfig())
        : svc(store, cfg)
    {
        for (unsigned d = 0; d < devices; ++d) {
            const unsigned idx =
                svc.addDevice(std::make_unique<sim::CpuDevice>());
            svc.device(idx).setFaultInjector(&faults);
        }
        svc.registerKernelPool([](runtime::Runtime &rt) {
               rt.addKernel("pk", workKernel("slow", 4000));
               rt.addKernel("pk", workKernel("fast", 100));
               rt.setKernelInfo("pk", regularInfo("pk"));
           }).throwIfError();
        svc.setPredictor(&predictor);
        svc.start();
    }

    JobResult run(std::uint64_t units)
    {
        kdp::Buffer<std::int32_t> out(units, kdp::MemSpace::Global,
                                      "pk.out");
        out.fill(-1);
        JobSpec spec;
        spec.signature("pk").units(units);
        spec.mutableArgs().add(out).add(static_cast<std::int64_t>(units));
        JobResult res = submitOne(svc, spec).result();
        if (res.ok()) {
            for (std::uint64_t u = 0; u < units; ++u)
                EXPECT_EQ(out.at(u), static_cast<std::int32_t>(3 * u + 7))
                    << "unit " << u;
        }
        return res;
    }

    std::uint64_t counter(const char *name)
    {
        return svc.metrics().counterValue(name);
    }
};

} // namespace

TEST(PredictService, ConfidentPredictionSkipsProfiling)
{
    Harness h;

    // Cold key: no evidence yet -- the predictor misses and the job
    // micro-profiles, which trains the predictor through the store's
    // profile feed.
    const JobResult first = h.run(kUnits);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.predicted);
    EXPECT_GT(first.report.profiledUnits, 0u);
    EXPECT_EQ(h.counter("predict.hit"), 0u);
    EXPECT_EQ(h.counter("predict.miss"), 1u);
    EXPECT_EQ(h.counter("predict.train"), 1u);
    EXPECT_EQ(h.predictor.trainingExamples(), 1u);

    // A neighbouring bucket (twice the units) is a store miss: the
    // measured record one bucket over serves it with ZERO profiled
    // units.
    const JobResult second = h.run(kUnits * 2);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.predicted);
    EXPECT_TRUE(second.warmStart);
    EXPECT_EQ(second.report.profiledUnits, 0u);
    EXPECT_EQ(second.report.selectedName, "fast");
    EXPECT_EQ(h.counter("predict.hit"), 1u);

    // The seeded record is a normal store record: the next launch of
    // the key is a plain warm start, no prediction needed.
    const JobResult third = h.run(kUnits * 2);
    ASSERT_TRUE(third.ok());
    EXPECT_TRUE(third.warmStart);
    EXPECT_EQ(h.counter("predict.hit"), 1u);
    h.svc.stop();
}

TEST(PredictService, InterpolatedPredictionAcrossBuckets)
{
    Harness h;

    // Bucket 9 profiles and trains; bucket 10 (2x the units, a store
    // miss) rides the neighbouring winner without any profiling.
    const JobResult base = h.run(kUnits);
    ASSERT_TRUE(base.ok());
    EXPECT_GT(base.report.profiledUnits, 0u);

    const JobResult doubled = h.run(kUnits * 2);
    ASSERT_TRUE(doubled.ok());
    EXPECT_TRUE(doubled.predicted);
    EXPECT_EQ(doubled.report.profiledUnits, 0u);
    EXPECT_EQ(doubled.report.selectedName, "fast");
    EXPECT_EQ(h.counter("predict.hit"), 1u);

    // Far outside the interpolation radius the model's capped
    // confidence does not clear the gate: profiling runs.
    const JobResult far = h.run(kUnits * 1024);
    ASSERT_TRUE(far.ok());
    EXPECT_FALSE(far.predicted);
    EXPECT_GT(far.report.profiledUnits, 0u);
    h.svc.stop();
}

TEST(PredictService, MispredictionDemotesToForcedProfile)
{
    Harness h;

    // Train one bucket; its neighbour (twice the units) is then
    // prediction-served.
    ASSERT_TRUE(h.run(kUnits).ok());

    // Seed exactly one launch failure: it lands on the predicted warm
    // launch, which demotes the predicted record, feeds the corrective
    // observer, and retries into a forced (corrective) profile.
    h.faults.failNext(1);
    const JobResult res = h.run(kUnits * 2);
    ASSERT_TRUE(res.ok()) << res.status.toString();
    EXPECT_EQ(res.attempts, 2u);
    EXPECT_GT(res.report.profiledUnits, 0u); // the corrective profile

    // predict.* counters reconcile 1:1 against the injector log: one
    // scripted LaunchFail, one predicted hit, one demotion, and the
    // corrective example retrained the predictor.
    EXPECT_EQ(h.faults.count(sim::FaultKind::LaunchFail), 1u);
    EXPECT_EQ(h.counter("predict.hit"), 1u);
    EXPECT_EQ(h.counter("predict.demoted"), 1u);
    EXPECT_EQ(h.predictor.demotions(), 1u);
    EXPECT_EQ(h.counter("predict.train"), 2u);
    EXPECT_EQ(h.predictor.trainingExamples(), 2u);

    // The corrective example replaced the bad guess with a
    // measurement: the key now serves warm from it, no prediction
    // needed.  The demotion cost calibration, so the predictor's own
    // guess for the next bucket stays below the gate until it earns
    // trust back.
    const JobResult after = h.run(kUnits * 2);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after.warmStart);
    EXPECT_FALSE(after.predicted);
    EXPECT_EQ(after.report.profiledUnits, 0u);
    EXPECT_EQ(h.counter("predict.hit"), 1u);
    EXPECT_EQ(h.counter("predict.demoted"), 1u); // no new demotion
    const auto next = h.predictor.predict(
        h.store, "pk", h.svc.device(0).fingerprint(),
        store::bucketOf(kUnits * 4));
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->variant, "fast");
    EXPECT_LT(next->confidence, h.predictor.config().threshold);
    h.svc.stop();
}

TEST(PredictService, QuarantineCooldownEndReprofiles)
{
    Harness h;

    // Profile the key (fast wins, slow is the runner-up).
    ASSERT_TRUE(h.run(kUnits).ok());

    // A failed warm launch quarantines the record: it serves the
    // runner-up for the cooldown, then invalidates itself so the
    // quarantined variant is re-evaluated by a fresh profile.
    h.faults.failNext(1);
    const JobResult demoted = h.run(kUnits);
    ASSERT_TRUE(demoted.ok()) << demoted.status.toString();
    EXPECT_EQ(demoted.report.selectedName, "slow");
    EXPECT_EQ(h.counter("store.quarantine"), 1u);
    const std::uint64_t cooldown = h.store.config().quarantineCooldown;
    for (std::uint64_t i = 1; i < cooldown; ++i) {
        const JobResult r = h.run(kUnits);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.report.selectedName, "slow");
    }
    const std::string dev = h.svc.device(0).fingerprint();
    EXPECT_FALSE(h.store.lookup("pk", dev, kUnits).has_value());

    // The invalidated key is re-profiled, never predicted -- the
    // predictor must not re-serve the quarantined variant, and is not
    // even asked (no predict.* event for the job).
    const std::uint64_t missesBefore = h.counter("predict.miss");
    const JobResult reprofiled = h.run(kUnits);
    ASSERT_TRUE(reprofiled.ok());
    EXPECT_FALSE(reprofiled.predicted);
    EXPECT_GT(reprofiled.report.profiledUnits, 0u);
    EXPECT_EQ(h.counter("predict.hit"), 0u);
    EXPECT_EQ(h.counter("predict.miss"), missesBefore);
    h.svc.stop();
}

TEST(PredictService, DriftInvalidationReprofiles)
{
    Harness h;
    ASSERT_TRUE(h.run(kUnits).ok());
    ASSERT_TRUE(h.run(kUnits).warmStart); // seeds the drift baseline

    // A plain run far off the baseline quarantines the record; the
    // fallback seeds its own baseline, and drifting off that one too
    // invalidates the record.
    const std::string dev = h.svc.device(0).fingerprint();
    const auto rec = h.store.lookup("pk", dev, kUnits);
    ASSERT_TRUE(rec.has_value());
    runtime::LaunchReport slow;
    slow.signature = "pk";
    slow.fromCache = true;
    slow.totalUnits = kUnits;
    slow.endTime = static_cast<sim::TimeNs>(
        rec->unitTimeNs * 10.0 * static_cast<double>(kUnits));
    EXPECT_EQ(h.store.observePlain(dev, slow),
              store::Observation::Quarantined);
    EXPECT_EQ(h.store.observePlain(dev, slow), store::Observation::Ok);
    slow.endTime *= 10;
    EXPECT_EQ(h.store.observePlain(dev, slow),
              store::Observation::Invalidated);

    const std::uint64_t missesBefore = h.counter("predict.miss");
    const JobResult reprofiled = h.run(kUnits);
    ASSERT_TRUE(reprofiled.ok());
    EXPECT_FALSE(reprofiled.predicted);
    EXPECT_GT(reprofiled.report.profiledUnits, 0u);
    EXPECT_EQ(h.counter("predict.hit"), 0u);
    EXPECT_EQ(h.counter("predict.miss"), missesBefore);
    h.svc.stop();
}

TEST(PredictService, BelowThresholdFallsBackToProfiling)
{
    // A predictor gated at an unreachable threshold never skips
    // profiling -- every key pays the normal cold cost.
    PredictorConfig pcfg;
    pcfg.threshold = 1.01;
    store::SelectionStore store;
    SelectionPredictor predictor(pcfg);
    DispatchService svc(store, ServiceConfig());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([](runtime::Runtime &rt) {
           rt.addKernel("pk", workKernel("slow", 4000));
           rt.addKernel("pk", workKernel("fast", 100));
           rt.setKernelInfo("pk", regularInfo("pk"));
       }).throwIfError();
    svc.setPredictor(&predictor);
    svc.start();

    for (int round = 0; round < 2; ++round) {
        kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global,
                                      "pk.out");
        JobSpec spec;
        spec.signature("pk").units(kUnits);
        spec.mutableArgs().add(out).add(static_cast<std::int64_t>(kUnits));
        const JobResult res = submitOne(svc, spec).result();
        ASSERT_TRUE(res.ok());
        EXPECT_FALSE(res.predicted);
        if (round == 1)
            store.clear(); // force a miss for the next round
    }
    svc.stop();
    EXPECT_EQ(svc.metrics().counterValue("predict.hit"), 0u);
    EXPECT_GT(svc.metrics().counterValue("predict.miss"), 0u);
    // Training still happened: gating affects serving, not learning.
    EXPECT_GT(predictor.trainingExamples(), 0u);
}
