/**
 * @file
 * Tests for learned selection: feature extraction, the three evidence
 * sources (exact winner, cross-bucket interpolation, linear model),
 * calibration collapse under mis-predictions, model persistence, and
 * the dispatch-service integration -- confident predictions skip
 * micro-profiling entirely, low-confidence keys fall back to it, and
 * a seeded launch fault on a predicted selection demotes it back to a
 * forced profile with the predict.* counters reconciling 1:1 against
 * the injector log.
 */
#include <gtest/gtest.h>

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

/** A training example as the store's profile feed delivers it. */
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

TEST(Predictor, ExactWinnerPredictsAboveThreshold)
{
    SelectionPredictor p;
    EXPECT_FALSE(p.predict("k", kCpuDev, 10).has_value());

    p.observeProfile(example("k", kCpuDev, 10, "fast"));
    EXPECT_EQ(p.trainingExamples(), 1u);
    EXPECT_EQ(p.winnerCount(), 1u);

    const auto pred = p.predict("k", kCpuDev, 10);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(pred->variant, "fast");
    EXPECT_EQ(pred->source, Source::Exact);
    EXPECT_EQ(pred->distance, 0u);
    // exactConfidence * the calibration prior (8/9) clears the gate.
    EXPECT_GE(pred->confidence, p.config().threshold);
    EXPECT_LT(pred->confidence, 1.0);

    // Different device fingerprint: the winner does not apply; the
    // model has no GPU-class weights either.
    EXPECT_FALSE(p.predict("k", kGpuDev, 10).has_value());
}

TEST(Predictor, InterpolationDecaysWithDistance)
{
    SelectionPredictor p;
    p.observeProfile(example("k", kCpuDev, 10, "fast"));

    const auto d1 = p.predict("k", kCpuDev, 11);
    const auto d2 = p.predict("k", kCpuDev, 12);
    ASSERT_TRUE(d1.has_value());
    ASSERT_TRUE(d2.has_value());
    EXPECT_EQ(d1->source, Source::Interpolated);
    EXPECT_EQ(d2->source, Source::Interpolated);
    EXPECT_EQ(d1->variant, "fast");
    EXPECT_EQ(d1->distance, 1u);
    EXPECT_EQ(d2->distance, 2u);
    EXPECT_GT(d1->confidence, d2->confidence);
    // One bucket away still clears the default gate; the exact hit
    // outranks both.
    EXPECT_GE(d1->confidence, p.config().threshold);
    EXPECT_GT(p.predict("k", kCpuDev, 10)->confidence, d1->confidence);

    // Beyond the radius only the (weak) model speaks.
    const auto d3 = p.predict("k", kCpuDev, 13);
    ASSERT_TRUE(d3.has_value());
    EXPECT_EQ(d3->source, Source::Model);
    EXPECT_LT(d3->confidence, p.config().threshold);

    // The nearer neighbour wins when both sides have winners.
    p.observeProfile(example("k", kCpuDev, 13, "slow"));
    const auto mid = p.predict("k", kCpuDev, 12);
    ASSERT_TRUE(mid.has_value());
    EXPECT_EQ(mid->variant, "slow"); // distance 1 beats distance 2
    EXPECT_EQ(mid->distance, 1u);
}

TEST(Predictor, InterpolationClampsAtBucketEdges)
{
    // Winners at the extreme buckets: neighbour arithmetic must clamp,
    // not wrap -- a bucket-0 winner seeding bucket 63 (or vice versa)
    // would alias workload sizes 2^63 apart.
    SelectionPredictor p;
    p.observeProfile(example("lo", kCpuDev, 0, "fast"));
    p.observeProfile(example("hi", kCpuDev, 63, "slow"));

    const auto up = p.predict("lo", kCpuDev, 1);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->source, Source::Interpolated);
    EXPECT_EQ(up->distance, 1u);

    const auto down = p.predict("hi", kCpuDev, 62);
    ASSERT_TRUE(down.has_value());
    EXPECT_EQ(down->source, Source::Interpolated);
    EXPECT_EQ(down->distance, 1u);

    // Across the space: no interpolation evidence (the model may
    // still answer, but never with a recorded-winner source).
    const auto far = p.predict("lo", kCpuDev, 63);
    if (far.has_value()) {
        EXPECT_EQ(far->source, Source::Model);
    }
    const auto near0 = p.predict("hi", kCpuDev, 0);
    if (near0.has_value()) {
        EXPECT_EQ(near0->source, Source::Model);
    }
}

TEST(Predictor, ModelGeneralizesAcrossSignatures)
{
    SelectionPredictor p;
    // Two structurally identical kernels on the same device class:
    // training examples for one build model evidence for the other.
    p.noteKernel("a", sampleInfo("a"));
    p.noteKernel("b", sampleInfo("b"));
    for (int i = 0; i < 8; ++i)
        p.observeProfile(example("a", kCpuDev, 10, "fast"));

    const auto pred = p.predict("b", kCpuDev, 10);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(pred->source, Source::Model);
    EXPECT_EQ(pred->variant, "fast");
    EXPECT_GT(pred->confidence, 0.0);
    // The model is capped below what a recorded winner would carry.
    EXPECT_LT(pred->confidence,
              p.predict("a", kCpuDev, 10)->confidence);
}

TEST(Predictor, CalibrationCollapsesUnderDemotions)
{
    SelectionPredictor p;
    p.observeProfile(example("k", kCpuDev, 10, "fast"));
    ASSERT_GE(p.predict("k", kCpuDev, 10)->confidence,
              p.config().threshold);
    const double before = p.calibration();

    // Each demotion charges demotionPenalty shadow misses; a
    // predictor that keeps being wrong talks itself below the gate
    // even where it still has a recorded winner.
    for (int i = 0; i < 5; ++i)
        p.observeDemotion("other", kCpuDev, 20 + static_cast<unsigned>(i));
    EXPECT_EQ(p.demotions(), 5u);
    EXPECT_LT(p.calibration(), before);
    EXPECT_LT(p.calibration(), 0.5);
    const auto pred = p.predict("k", kCpuDev, 10);
    ASSERT_TRUE(pred.has_value()); // still has an opinion...
    EXPECT_LT(pred->confidence, p.config().threshold); // ...ungated
}

TEST(Predictor, DemotionUnlearnsTheWinner)
{
    SelectionPredictor p;
    p.observeProfile(example("k", kCpuDev, 10, "fast"));
    ASSERT_EQ(p.predict("k", kCpuDev, 10)->source, Source::Exact);

    p.observeDemotion("k", kCpuDev, 10);
    EXPECT_EQ(p.winnerCount(), 0u);
    const auto pred = p.predict("k", kCpuDev, 10);
    // The erased winner no longer backs an exact prediction; at most
    // the (penalized) model still answers.
    if (pred.has_value()) {
        EXPECT_NE(pred->source, Source::Exact);
        EXPECT_LT(pred->confidence, p.config().threshold);
    }

    // The corrective re-profile re-establishes the (new) winner.
    p.observeProfile(example("k", kCpuDev, 10, "slow"));
    const auto fixed = p.predict("k", kCpuDev, 10);
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(fixed->source, Source::Exact);
    EXPECT_EQ(fixed->variant, "slow");
}

TEST(Predictor, PersistenceRoundTrip)
{
    SelectionPredictor p;
    p.noteKernel("k", sampleInfo("k"));
    p.observeProfile(example("k", kCpuDev, 10, "fast"));
    p.observeProfile(example("k", kCpuDev, 12, "slow"));
    p.observeDemotion("k", kCpuDev, 12);

    SelectionPredictor q;
    q.loadJson(p.toJson());
    EXPECT_EQ(q.trainingExamples(), p.trainingExamples());
    EXPECT_EQ(q.demotions(), p.demotions());
    EXPECT_DOUBLE_EQ(q.calibration(), p.calibration());
    EXPECT_EQ(q.winnerCount(), p.winnerCount());
    for (unsigned b = 8; b <= 14; ++b) {
        const auto a = p.predict("k", kCpuDev, b);
        const auto c = q.predict("k", kCpuDev, b);
        ASSERT_EQ(a.has_value(), c.has_value()) << "bucket " << b;
        if (a.has_value()) {
            EXPECT_EQ(a->variant, c->variant) << "bucket " << b;
            EXPECT_DOUBLE_EQ(a->confidence, c->confidence)
                << "bucket " << b;
            EXPECT_EQ(a->source, c->source) << "bucket " << b;
        }
    }
}

TEST(Predictor, LoadRejectsMalformedDocumentsIntact)
{
    SelectionPredictor p;
    p.observeProfile(example("k", kCpuDev, 10, "fast"));

    EXPECT_THROW(p.loadJson(support::Json::parse("{\"version\":99}")),
                 std::runtime_error);
    // Wrong feature dimensionality inside a weight vector.
    EXPECT_THROW(
        p.loadJson(support::Json::parse(
            R"({"version":1,"weights":[{"device_class":0,)"
            R"("variant":"fast","w":[1,2,3]}]})")),
        std::runtime_error);
    // The failed loads left the learned state untouched.
    EXPECT_EQ(p.winnerCount(), 1u);
    EXPECT_TRUE(p.predict("k", kCpuDev, 10).has_value());

    // clear() drops everything.
    p.clear();
    EXPECT_EQ(p.winnerCount(), 0u);
    EXPECT_EQ(p.trainingExamples(), 0u);
    EXPECT_FALSE(p.predict("k", kCpuDev, 10).has_value());
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

    // Simulate a restart that lost the store but kept the model: the
    // exact remembered winner serves the key with ZERO profiled units.
    h.store.clear();
    const JobResult second = h.run(kUnits);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.predicted);
    EXPECT_TRUE(second.warmStart);
    EXPECT_EQ(second.report.profiledUnits, 0u);
    EXPECT_EQ(second.report.selectedName, "fast");
    EXPECT_EQ(h.counter("predict.hit"), 1u);

    // The seeded record is a normal store record: the next launch of
    // the key is a plain warm start, no prediction needed.
    const JobResult third = h.run(kUnits);
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

    // Train, then lose the store so the next launch is prediction-
    // served.
    ASSERT_TRUE(h.run(kUnits).ok());
    h.store.clear();

    // Seed exactly one launch failure: it lands on the predicted warm
    // launch, which demotes the predicted record, feeds the corrective
    // observer, and retries into a forced (corrective) profile.
    h.faults.failNext(1);
    const JobResult res = h.run(kUnits);
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

    // The demotion unlearned the bad winner, and the corrective
    // example replaced it: a later store loss is served by prediction
    // again, now backed by the fresh measurement.
    h.store.clear();
    const JobResult after = h.run(kUnits);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after.predicted);
    EXPECT_EQ(h.counter("predict.hit"), 2u);
    EXPECT_EQ(h.counter("predict.demoted"), 1u); // no new demotion
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
