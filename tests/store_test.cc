/**
 * @file
 * Tests for the persistent selection store: size-bucket boundaries,
 * JSON round-trip, drift detection with quarantine / invalidation
 * escalation, failure reporting, the hit/miss statistics, the
 * variant blacklist, and crash-safe persistence (checksum envelope,
 * corruption rejection, version migration).
 */
#include <cstdio>
#include <fstream>
#include <sstream>
#include <gtest/gtest.h>

#include "dysel/fed/delta.hh"
#include "dysel/fed/replicator.hh"
#include "dysel/store/selection_store.hh"
#include "support/metrics.hh"
#include "support/net/http.hh"

using namespace dysel;
using namespace dysel::store;

namespace {

constexpr const char *kDev = "cpu/test-device/c8@3.60GHz";

/** A synthetic profiled launch report with two variants. */
runtime::LaunchReport
profiledReport(const std::string &sig, std::uint64_t units,
               int selected = 1)
{
    runtime::LaunchReport r;
    r.signature = sig;
    r.profiled = true;
    r.totalUnits = units;
    r.profiledUnits = 256;
    r.selected = selected;
    r.profiles.resize(2);
    r.profiles[0] = {"slow", 4000, 4200, 3900, 128};
    r.profiles[1] = {"fast", 1000, 1100, 950, 128};
    r.selectedName = r.profiles[static_cast<std::size_t>(selected)].name;
    return r;
}

/** A plain (cache-served) launch taking @p unit_ns per unit. */
runtime::LaunchReport
plainReport(const std::string &sig, std::uint64_t units, double unit_ns)
{
    runtime::LaunchReport r;
    r.signature = sig;
    r.profiled = false;
    r.fromCache = true;
    r.totalUnits = units;
    r.startTime = 0;
    r.endTime = static_cast<sim::TimeNs>(unit_ns
                                         * static_cast<double>(units));
    return r;
}

} // namespace

TEST(Bucket, Boundaries)
{
    EXPECT_EQ(bucketOf(0), 0u);
    EXPECT_EQ(bucketOf(1), 0u);
    EXPECT_EQ(bucketOf(2), 1u);
    EXPECT_EQ(bucketOf(3), 1u);
    EXPECT_EQ(bucketOf(4), 2u);
    EXPECT_EQ(bucketOf(1023), 9u);
    EXPECT_EQ(bucketOf(1024), 10u);
    EXPECT_EQ(bucketOf(2047), 10u);
    EXPECT_EQ(bucketOf(2048), 11u);
}

TEST(Bucket, RangeRoundTrips)
{
    for (unsigned b = 1; b < 40; ++b) {
        const auto [lo, hi] = bucketRange(b);
        EXPECT_EQ(bucketOf(lo), b);
        EXPECT_EQ(bucketOf(hi), b);
        EXPECT_EQ(bucketOf(hi + 1), b + 1);
    }
}

TEST(Bucket, ExactPowersOfTwoOpenTheirBucket)
{
    // 2^b is the *first* unit count of bucket b, not the last of
    // b - 1: an off-by-one here silently halves interpolation
    // distances at every boundary.
    for (unsigned b = 1; b < 64; ++b) {
        const std::uint64_t po2 = std::uint64_t{1} << b;
        EXPECT_EQ(bucketOf(po2), b) << "2^" << b;
        EXPECT_EQ(bucketOf(po2 - 1), b - 1) << "2^" << b << " - 1";
    }
}

TEST(Bucket, HighBucketsDoNotWrap)
{
    // The uint64 edge: 2^63 and everything above it is bucket 63, and
    // the range arithmetic must neither shift by >= 64 (UB) nor wrap
    // `lo * 2 - 1` past 2^64 back to a small bucket.
    EXPECT_EQ(bucketOf(std::uint64_t{1} << 62), 62u);
    EXPECT_EQ(bucketOf(std::uint64_t{1} << 63), 63u);
    EXPECT_EQ(bucketOf(~std::uint64_t{0}), 63u);

    const auto [lo62, hi62] = bucketRange(62);
    EXPECT_EQ(lo62, std::uint64_t{1} << 62);
    EXPECT_EQ(hi62, (std::uint64_t{1} << 63) - 1);

    const auto [lo63, hi63] = bucketRange(63);
    EXPECT_EQ(lo63, std::uint64_t{1} << 63);
    EXPECT_EQ(hi63, ~std::uint64_t{0});
    EXPECT_GT(hi63, lo63); // i.e. did not wrap

    // Out-of-range bucket indices (interpolation arithmetic can
    // produce bucket + d > 63) clamp to the edge bucket instead of
    // aliasing a small one.
    EXPECT_EQ(bucketRange(64), bucketRange(63));
    EXPECT_EQ(bucketRange(200), bucketRange(63));
}

TEST(Bucket, UnitsForBucketIsAnInverse)
{
    // unitsForBucket is the interpolation path's way back from a
    // neighbouring bucket index to a representative unit count; it
    // must land in exactly that bucket for every index, clamped
    // included.  Bucket 0 maps to 1 unit, never the degenerate 0.
    EXPECT_EQ(unitsForBucket(0), 1u);
    for (unsigned b = 0; b < 70; ++b)
        EXPECT_EQ(bucketOf(unitsForBucket(b)), std::min(b, 63u))
            << "bucket " << b;
}

TEST(SelectionStore, LookupMissesThenHitsAfterProfile)
{
    SelectionStore store;
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());

    store.recordProfile(kDev, profiledReport("k", 2048));
    auto rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selected, 1);
    EXPECT_EQ(rec->selectedName, "fast");
    EXPECT_EQ(rec->bucket, 11u);
    ASSERT_EQ(rec->profiles.size(), 2u);
    EXPECT_EQ(rec->profiles[0].name, "slow");

    // Same signature, different size bucket: still a miss.
    EXPECT_FALSE(store.lookup("k", kDev, 8192).has_value());
    // Same bucket, different device: still a miss.
    EXPECT_FALSE(store.lookup("k", "gpu/other", 2048).has_value());
}

TEST(SelectionStore, SameBucketDifferentUnitsHits)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));
    // 2048..4095 share bucket 11.
    EXPECT_TRUE(store.lookup("k", kDev, 4095).has_value());
    EXPECT_FALSE(store.lookup("k", kDev, 4096).has_value());
}

TEST(SelectionStore, UnprofiledReportsAreIgnored)
{
    SelectionStore store;
    store.recordProfile(kDev, plainReport("k", 2048, 10.0));
    EXPECT_EQ(store.size(), 0u);
}

TEST(SelectionStore, DriftQuarantinesThenServesRunnerUp)
{
    StoreConfig cfg;
    cfg.driftFactor = 1.5;
    SelectionStore store(cfg);
    store.recordProfile(kDev, profiledReport("k", 2048));

    // First plain run seeds the baseline; consistent runs confirm it.
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Ok);
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.5)),
              Observation::Ok);
    auto rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->confidence, 2u);
    EXPECT_GT(rec->unitTimeNs, 0.0);

    // A 3x slowdown exceeds the 1.5x drift factor.  A record with a
    // profiled runner-up is quarantined, not dropped: it keeps
    // serving, with the next-best variant.
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 30.0)),
              Observation::Quarantined);
    EXPECT_EQ(store.quarantineCount(), 1u);
    EXPECT_EQ(store.driftInvalidations(), 0u);
    rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selectedName, "slow");
    EXPECT_EQ(rec->quarantinedVariant, 1);
    EXPECT_EQ(rec->cooldownLeft, cfg.quarantineCooldown);

    // The fallback drifting too exhausts the record: invalidated.
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 40.0)),
              Observation::Ok); // seeds the fallback's baseline
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Invalidated);
    EXPECT_EQ(store.driftInvalidations(), 1u);
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());

    // Re-profiling revalidates the record and lifts the quarantine.
    store.recordProfile(kDev, profiledReport("k", 2048, 0));
    rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(rec->valid);
    EXPECT_EQ(rec->selectedName, "slow");
    EXPECT_EQ(rec->quarantinedVariant, -1);
    EXPECT_EQ(rec->profiledLaunches, 2u);
}

TEST(SelectionStore, QuarantineCooldownForcesReprofile)
{
    StoreConfig cfg;
    cfg.quarantineCooldown = 3;
    SelectionStore store(cfg);
    store.recordProfile(kDev, profiledReport("k", 2048));
    store.observePlain(kDev, plainReport("k", 2048, 10.0));
    ASSERT_EQ(store.observePlain(kDev, plainReport("k", 2048, 30.0)),
              Observation::Quarantined);

    // Three well-behaved fallback runs spend the cooldown; the last
    // one invalidates the record so the next launch re-profiles and
    // the quarantined variant gets to compete again.
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 20.0)),
              Observation::Ok);
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 20.0)),
              Observation::Ok);
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 20.0)),
              Observation::Invalidated);
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());
}

TEST(SelectionStore, ReportFailureQuarantinesThenInvalidates)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));

    // A launch failure on the stored winner demotes it immediately.
    EXPECT_EQ(store.reportFailure("k", kDev, 2048),
              Observation::Quarantined);
    auto rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selectedName, "slow");

    // The fallback failing too gives up on the record entirely.
    EXPECT_EQ(store.reportFailure("k", kDev, 2048),
              Observation::Invalidated);
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());
    // Unknown keys are ignored.
    EXPECT_EQ(store.reportFailure("other", kDev, 2048),
              Observation::Ok);
}

TEST(SelectionStore, SingleVariantRecordInvalidatesOnDrift)
{
    SelectionStore store;
    runtime::LaunchReport r = profiledReport("k", 2048, 0);
    r.profiles.resize(1); // no runner-up to fall back on
    store.recordProfile(kDev, r);
    store.observePlain(kDev, plainReport("k", 2048, 10.0));
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 30.0)),
              Observation::Invalidated);
    EXPECT_EQ(store.quarantineCount(), 0u);
    EXPECT_EQ(store.driftInvalidations(), 1u);
}

TEST(SelectionStore, SpeedupDriftAlsoQuarantines)
{
    SelectionStore store; // default driftFactor 1.5
    store.recordProfile(kDev, profiledReport("k", 2048));
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 30.0)),
              Observation::Ok);
    // Getting much *faster* also means the stored ranking is stale.
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Quarantined);
}

TEST(SelectionStore, ObservationsOfUnknownKeysAreIgnored)
{
    SelectionStore store;
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Ok);
    EXPECT_EQ(store.size(), 0u);
}

TEST(SelectionStore, JsonRoundTripPreservesEverything)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("a", 2048));
    store.recordProfile(kDev, profiledReport("b", 300, 0));
    store.recordProfile("gpu/dev2", profiledReport("a", 2048));
    store.observePlain(kDev, plainReport("a", 2048, 12.5));
    store.invalidate("b", kDev, bucketOf(300));
    // A quarantined record must survive the round trip mid-cooldown.
    store.recordProfile(kDev, profiledReport("c", 512));
    store.reportFailure("c", kDev, 512);

    SelectionStore loaded;
    loaded.loadJson(store.toJson());

    const auto before = store.records();
    const auto after = loaded.records();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].signature, after[i].signature);
        EXPECT_EQ(before[i].device, after[i].device);
        EXPECT_EQ(before[i].bucket, after[i].bucket);
        EXPECT_EQ(before[i].selected, after[i].selected);
        EXPECT_EQ(before[i].selectedName, after[i].selectedName);
        EXPECT_EQ(before[i].launches, after[i].launches);
        EXPECT_EQ(before[i].profiledLaunches, after[i].profiledLaunches);
        EXPECT_EQ(before[i].confidence, after[i].confidence);
        EXPECT_DOUBLE_EQ(before[i].unitTimeNs, after[i].unitTimeNs);
        EXPECT_EQ(before[i].valid, after[i].valid);
        EXPECT_EQ(before[i].quarantinedVariant,
                  after[i].quarantinedVariant);
        EXPECT_EQ(before[i].cooldownLeft, after[i].cooldownLeft);
        EXPECT_EQ(before[i].quarantines, after[i].quarantines);
        ASSERT_EQ(before[i].profiles.size(), after[i].profiles.size());
        for (std::size_t j = 0; j < before[i].profiles.size(); ++j) {
            EXPECT_EQ(before[i].profiles[j].name,
                      after[i].profiles[j].name);
            EXPECT_DOUBLE_EQ(before[i].profiles[j].metricNs,
                             after[i].profiles[j].metricNs);
            EXPECT_EQ(before[i].profiles[j].units,
                      after[i].profiles[j].units);
        }
    }
    // Identical selections serve identically after the round trip.
    auto rec = loaded.lookup("a", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selectedName, "fast");
    EXPECT_FALSE(loaded.lookup("b", kDev, 300).has_value()); // invalid
    auto quarantined = loaded.lookup("c", kDev, 512);
    ASSERT_TRUE(quarantined.has_value());
    EXPECT_EQ(quarantined->selectedName, "slow");
    EXPECT_EQ(quarantined->quarantinedVariant, 1);
}

TEST(SelectionStore, LoadsVersionOneDocuments)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));
    // A pre-quarantine (version 1) document is the same format minus
    // the quarantine fields; it must load with quarantine at rest.
    support::Json doc = store.toJson();
    doc.set("version", support::Json(1));
    SelectionStore loaded;
    loaded.loadJson(doc);
    auto rec = loaded.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->quarantinedVariant, -1);
    EXPECT_EQ(rec->cooldownLeft, 0u);
}

TEST(SelectionStore, FileRoundTrip)
{
    // Written relative to the test's working directory, i.e. under
    // build/ when run through ctest; *.store.json is gitignored.
    const std::string path = "store_test.tmp.store.json";
    {
        SelectionStore store;
        store.recordProfile(kDev, profiledReport("k", 2048));
        ASSERT_TRUE(store.saveFile(path).ok());
    }
    SelectionStore loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok());
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.lookup("k", kDev, 2048).has_value());
    std::remove(path.c_str());
}

TEST(SelectionStore, LoadRejectsGarbage)
{
    SelectionStore store;
    EXPECT_EQ(store.loadFile("/nonexistent/path/store.json").code(),
              support::StatusCode::NotFound);
    EXPECT_THROW(store.loadJson(support::Json::parse("{\"version\":99}")),
                 std::runtime_error);
}

TEST(SelectionStore, SaveToUnwritablePathFails)
{
    SelectionStore store;
    const auto st = store.saveFile("/nonexistent/dir/store.json");
    EXPECT_EQ(st.code(), support::StatusCode::Unavailable);
}

namespace {

/** Read a whole file into a string. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Overwrite a file with @p text. */
void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
}

/** A store with one record and one blacklist entry, saved to @p path. */
void
savePopulated(const std::string &path)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));
    store.blacklistVariant("k", "oob-writer", kDev, "redzone");
    ASSERT_TRUE(store.saveFile(path).ok());
}

} // namespace

TEST(SelectionStore, TruncatedFileRejectedWithoutPartialLoad)
{
    const std::string path = "store_test.truncated.store.json";
    savePopulated(path);
    const std::string text = slurp(path);
    ASSERT_GT(text.size(), 40u);
    spit(path, text.substr(0, text.size() / 2));

    SelectionStore loaded;
    loaded.recordProfile(kDev, profiledReport("existing", 512));
    const auto st = loaded.loadFile(path);
    EXPECT_EQ(st.code(), support::StatusCode::DataLoss);
    // The failed load must leave the previous contents untouched.
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.lookup("existing", kDev, 512).has_value());
    std::remove(path.c_str());
}

TEST(SelectionStore, ChecksumMismatchRejected)
{
    const std::string path = "store_test.badsum.store.json";
    savePopulated(path);
    // Corrupt the payload while keeping the JSON well-formed: the
    // stored winner's name changes, the checksum does not.
    std::string text = slurp(path);
    const auto pos = text.find("\"fast\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 6, "\"fist\"");
    spit(path, text);

    SelectionStore loaded;
    const auto st = loaded.loadFile(path);
    EXPECT_EQ(st.code(), support::StatusCode::DataLoss);
    EXPECT_NE(st.message().find("checksum"), std::string::npos);
    EXPECT_EQ(loaded.size(), 0u);
    std::remove(path.c_str());
}

TEST(SelectionStore, LegacyNakedDocumentStillLoads)
{
    // Pre-checksum saveFile wrote the version-2 document naked (no
    // envelope); such files must keep loading after an upgrade.
    const std::string path = "store_test.legacy.store.json";
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));
    support::Json doc = store.toJson();
    doc.set("version", support::Json(2));
    // v2 had no blacklist array either.
    spit(path, doc.dump(2) + "\n");

    SelectionStore loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok());
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.blacklistSize(), 0u);
    std::remove(path.c_str());
}

TEST(SelectionStore, MigrationRoundTripsAcrossVersions)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));
    store.blacklistVariant("k", "bad", kDev, "nan");

    // v1 and v2: quarantine / blacklist state at rest.
    for (int v = 1; v <= 2; ++v) {
        support::Json doc = store.toJson();
        doc.set("version", support::Json(v));
        SelectionStore loaded;
        loaded.loadJson(doc);
        EXPECT_EQ(loaded.size(), 1u);
        // The v3 save carried the blacklist array, so even a
        // down-versioned document keeps it; a true v1/v2 document
        // simply has none.
        auto rec = loaded.lookup("k", kDev, 2048);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->selectedName, "fast");
    }

    // v3: the full round trip, blacklist included.
    SelectionStore loaded;
    loaded.loadJson(store.toJson());
    EXPECT_TRUE(loaded.isBlacklisted("k", "bad", kDev));
    EXPECT_FALSE(loaded.isBlacklisted("k", "bad", "gpu/other"));
    ASSERT_EQ(loaded.blacklistEntries().size(), 1u);
    EXPECT_EQ(loaded.blacklistEntries()[0].reason, "nan");
    EXPECT_EQ(loaded.blacklistEntries()[0].strikes, 1u);
}

TEST(SelectionStore, BlacklistInvalidatesMatchingRecords)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048));     // fast
    store.recordProfile(kDev, profiledReport("k", 300));      // fast
    store.recordProfile(kDev, profiledReport("other", 2048, 0)); // slow
    ASSERT_TRUE(store.lookup("k", kDev, 2048).has_value());

    // Blacklisting the winner kills its records in every bucket of
    // the (signature, device), but not other signatures.
    store.blacklistVariant("k", "fast", kDev, "mismatch");
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());
    EXPECT_FALSE(store.lookup("k", kDev, 300).has_value());
    EXPECT_TRUE(store.lookup("other", kDev, 2048).has_value());
    // Invalidated, not forgotten: the key still wants a profile.
    EXPECT_TRUE(store.known("k", kDev, 2048));
    EXPECT_FALSE(store.known("k", kDev, 8192));

    EXPECT_TRUE(store.isBlacklisted("k", "fast", kDev));
    const auto bl = store.blacklistedVariants("k", kDev);
    ASSERT_EQ(bl.size(), 1u);
    EXPECT_EQ(bl[0].first, "fast");
    EXPECT_EQ(bl[0].second, "mismatch");

    // Repeat reports bump the strike count, not the entry count.
    store.blacklistVariant("k", "fast", kDev, "redzone");
    EXPECT_EQ(store.blacklistSize(), 1u);
    EXPECT_EQ(store.blacklistEntries()[0].strikes, 2u);
    EXPECT_EQ(store.blacklistEntries()[0].reason, "redzone");
}

TEST(SelectionStore, BlacklistSurvivesFileRoundTrip)
{
    const std::string path = "store_test.blacklist.store.json";
    savePopulated(path);

    SelectionStore loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok());
    EXPECT_TRUE(loaded.isBlacklisted("k", "oob-writer", kDev));
    EXPECT_EQ(loaded.blacklistSize(), 1u);
    std::remove(path.c_str());
}

namespace {

/**
 * Golden documents: the byte-for-byte shape each historical format
 * version wrote, frozen as literals so a loader regression cannot
 * hide behind toJson() changing in lockstep.  v1 predates quarantine,
 * v2 predates the blacklist, v3 predates predictions / extensions,
 * v4 predates the federation envelope (Lamport stamps, version
 * vectors, profiling provenance), v5 is current.
 */
constexpr const char *kGoldenV1 = R"({
  "records": [
    {
      "bucket": 11,
      "confidence": 3,
      "device": "cpu/test-device/c8@3.60GHz",
      "launches": 7,
      "profiled_launches": 2,
      "profiles": [
        {"busy_ns": 3900, "metric_ns": 4000, "name": "slow",
         "span_ns": 4200, "units": 128},
        {"busy_ns": 950, "metric_ns": 1000, "name": "fast",
         "span_ns": 1100, "units": 128}
      ],
      "selected": 1,
      "selected_name": "fast",
      "signature": "gold",
      "unit_time_ns": 12.5,
      "valid": true
    }
  ],
  "version": 1
})";

constexpr const char *kGoldenV2 = R"({
  "records": [
    {
      "bucket": 11,
      "confidence": 0,
      "cooldown_left": 5,
      "device": "cpu/test-device/c8@3.60GHz",
      "launches": 9,
      "profiled_launches": 1,
      "profiles": [
        {"busy_ns": 3900, "metric_ns": 4000, "name": "slow",
         "span_ns": 4200, "units": 128},
        {"busy_ns": 950, "metric_ns": 1000, "name": "fast",
         "span_ns": 1100, "units": 128}
      ],
      "quarantined_variant": 1,
      "quarantines": 1,
      "selected": 0,
      "selected_name": "slow",
      "signature": "gold",
      "unit_time_ns": 0.0,
      "valid": true
    }
  ],
  "version": 2
})";

constexpr const char *kGoldenV3 = R"({
  "blacklist": [
    {
      "device": "cpu/test-device/c8@3.60GHz",
      "reason": "redzone",
      "signature": "gold",
      "strikes": 2,
      "variant": "oob-writer"
    }
  ],
  "records": [
    {
      "bucket": 11,
      "confidence": 3,
      "cooldown_left": 0,
      "device": "cpu/test-device/c8@3.60GHz",
      "launches": 7,
      "profiled_launches": 2,
      "profiles": [
        {"busy_ns": 3900, "metric_ns": 4000, "name": "slow",
         "span_ns": 4200, "units": 128},
        {"busy_ns": 950, "metric_ns": 1000, "name": "fast",
         "span_ns": 1100, "units": 128}
      ],
      "quarantined_variant": -1,
      "quarantines": 0,
      "selected": 1,
      "selected_name": "fast",
      "signature": "gold",
      "unit_time_ns": 12.5,
      "valid": true
    }
  ],
  "version": 3
})";

constexpr const char *kGoldenV4 = R"({
  "blacklist": [
    {
      "device": "cpu/test-device/c8@3.60GHz",
      "reason": "redzone",
      "signature": "gold",
      "strikes": 2,
      "variant": "oob-writer"
    }
  ],
  "extensions": {
    "predictor": {"weights": 3}
  },
  "records": [
    {
      "bucket": 11,
      "confidence": 3,
      "cooldown_left": 0,
      "device": "cpu/test-device/c8@3.60GHz",
      "launches": 7,
      "predicted": false,
      "predicted_confidence": 0.0,
      "profiled_launches": 2,
      "profiles": [
        {"busy_ns": 3900, "metric_ns": 4000, "name": "slow",
         "span_ns": 4200, "units": 128},
        {"busy_ns": 950, "metric_ns": 1000, "name": "fast",
         "span_ns": 1100, "units": 128}
      ],
      "quarantined_variant": -1,
      "quarantines": 0,
      "selected": 1,
      "selected_name": "fast",
      "signature": "gold",
      "unit_time_ns": 12.5,
      "valid": true
    }
  ],
  "version": 4
})";

constexpr const char *kGoldenV5 = R"({
  "blacklist": [
    {
      "device": "cpu/test-device/c8@3.60GHz",
      "reason": "redzone",
      "signature": "gold",
      "stamp_origin": 2,
      "stamp_tick": 9,
      "strikes": 2,
      "variant": "oob-writer"
    }
  ],
  "extension_stamps": {
    "predictor": {"origin": 1, "tick": 14}
  },
  "extensions": {
    "predictor": {"weights": 3}
  },
  "records": [
    {
      "bucket": 11,
      "confidence": 3,
      "cooldown_left": 0,
      "device": "cpu/test-device/c8@3.60GHz",
      "launches": 7,
      "predicted": false,
      "predicted_confidence": 0.0,
      "profile_cid": 4242,
      "profile_origin": 2,
      "profiled_launches": 2,
      "profiles": [
        {"busy_ns": 3900, "metric_ns": 4000, "name": "slow",
         "span_ns": 4200, "units": 128},
        {"busy_ns": 950, "metric_ns": 1000, "name": "fast",
         "span_ns": 1100, "units": 128}
      ],
      "quarantined_variant": -1,
      "quarantines": 0,
      "selected": 1,
      "selected_name": "fast",
      "signature": "gold",
      "stamp_origin": 2,
      "stamp_tick": 17,
      "unit_time_ns": 12.5,
      "valid": true,
      "vv": {"0": 5, "2": 17}
    }
  ],
  "version": 5
})";

} // namespace

TEST(SelectionStore, GoldenV1DocumentLoads)
{
    SelectionStore store;
    store.loadJson(support::Json::parse(kGoldenV1));
    ASSERT_EQ(store.size(), 1u);
    auto rec = store.lookup("gold", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selected, 1);
    EXPECT_EQ(rec->selectedName, "fast");
    EXPECT_EQ(rec->launches, 7u);
    EXPECT_EQ(rec->profiledLaunches, 2u);
    EXPECT_EQ(rec->confidence, 3u);
    EXPECT_DOUBLE_EQ(rec->unitTimeNs, 12.5);
    ASSERT_EQ(rec->profiles.size(), 2u);
    EXPECT_EQ(rec->profiles[0].name, "slow");
    EXPECT_DOUBLE_EQ(rec->profiles[1].metricNs, 1000.0);
    // Fields v1 never wrote load at rest.
    EXPECT_EQ(rec->quarantinedVariant, -1);
    EXPECT_EQ(rec->cooldownLeft, 0u);
    EXPECT_FALSE(rec->predicted);
    EXPECT_EQ(store.blacklistSize(), 0u);
}

TEST(SelectionStore, GoldenV2DocumentLoadsQuarantineState)
{
    SelectionStore store;
    store.loadJson(support::Json::parse(kGoldenV2));
    ASSERT_EQ(store.size(), 1u);
    auto rec = store.lookup("gold", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    // The record is mid-quarantine: serving the fallback, cooldown
    // ticking.  That exact state must survive the load.
    EXPECT_EQ(rec->selectedName, "slow");
    EXPECT_EQ(rec->quarantinedVariant, 1);
    EXPECT_EQ(rec->cooldownLeft, 5u);
    EXPECT_EQ(rec->quarantines, 1u);
    EXPECT_FALSE(rec->predicted);
}

TEST(SelectionStore, GoldenV3DocumentLoadsBlacklist)
{
    SelectionStore store;
    store.loadJson(support::Json::parse(kGoldenV3));
    ASSERT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.lookup("gold", kDev, 2048).has_value());
    EXPECT_TRUE(store.isBlacklisted("gold", "oob-writer", kDev));
    ASSERT_EQ(store.blacklistEntries().size(), 1u);
    EXPECT_EQ(store.blacklistEntries()[0].reason, "redzone");
    EXPECT_EQ(store.blacklistEntries()[0].strikes, 2u);
}

TEST(SelectionStore, GoldenV4DocumentLoadsPredictionsAndExtensions)
{
    SelectionStore store;
    store.loadJson(support::Json::parse(kGoldenV4));
    ASSERT_EQ(store.size(), 1u);
    auto rec = store.lookup("gold", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->predicted);
    EXPECT_TRUE(store.isBlacklisted("gold", "oob-writer", kDev));
    auto ext = store.extension("predictor");
    ASSERT_TRUE(ext.has_value());
    EXPECT_EQ(ext->intOr("weights", 0), 3);
    // v4 never stamped anything; the loader stamps everything fresh
    // so two replicas seeded from the same legacy file cannot present
    // identical stamps over possibly-diverging payloads.
    EXPECT_GT(rec->stamp.tick, 0u);
    EXPECT_EQ(rec->profileCid, 0u);
}

TEST(SelectionStore, GoldenV5DocumentLoadsFederationEnvelope)
{
    SelectionStore store;
    store.loadJson(support::Json::parse(kGoldenV5));
    ASSERT_EQ(store.size(), 1u);
    auto rec = store.lookup("gold", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    // The causal metadata must survive exactly: stamps decide every
    // future merge, the version vector decides staleness, and the
    // provenance fields are the cross-replica trace link.
    EXPECT_EQ(rec->stamp.tick, 17u);
    EXPECT_EQ(rec->stamp.origin, 2u);
    EXPECT_EQ(rec->vv.ticks.at(0u), 5u);
    EXPECT_EQ(rec->vv.ticks.at(2u), 17u);
    EXPECT_EQ(rec->profileCid, 4242u);
    EXPECT_EQ(rec->profileOrigin, 2u);
    ASSERT_EQ(store.blacklistEntries().size(), 1u);
    EXPECT_EQ(store.blacklistEntries()[0].stamp.tick, 9u);
    EXPECT_EQ(store.blacklistEntries()[0].stamp.origin, 2u);
    ASSERT_EQ(store.extensionEntries().size(), 1u);
    EXPECT_EQ(store.extensionEntries()[0].stamp.tick, 14u);
    EXPECT_EQ(store.extensionEntries()[0].stamp.origin, 1u);
    // The Lamport clock resumes past the freshest loaded stamp, so
    // the first post-load local write outranks the whole document.
    EXPECT_EQ(store.lamportClock(), 17u);
}

TEST(SelectionStore, GoldenDocumentsRoundTripThroughV5)
{
    // Loading any historical version and saving re-emits the current
    // format with nothing dropped.
    for (const char *golden :
         {kGoldenV1, kGoldenV2, kGoldenV3, kGoldenV4, kGoldenV5}) {
        SelectionStore store;
        store.loadJson(support::Json::parse(golden));
        const support::Json doc = store.toJson();
        EXPECT_EQ(doc.intOr("version", 0), 5);

        SelectionStore again;
        again.loadJson(doc);
        EXPECT_EQ(again.size(), store.size());
        EXPECT_EQ(again.blacklistSize(), store.blacklistSize());
        const auto before = store.records();
        const auto after = again.records();
        ASSERT_EQ(before.size(), after.size());
        for (std::size_t i = 0; i < before.size(); ++i) {
            EXPECT_EQ(before[i].selectedName, after[i].selectedName);
            EXPECT_EQ(before[i].launches, after[i].launches);
            EXPECT_EQ(before[i].quarantinedVariant,
                      after[i].quarantinedVariant);
            EXPECT_EQ(before[i].cooldownLeft, after[i].cooldownLeft);
            EXPECT_EQ(before[i].profiles.size(),
                      after[i].profiles.size());
        }
    }
}

namespace {

/** A well-formed one-record delta to mutate in the corruption tests. */
support::Json
healthyDelta()
{
    SelectionStore store;
    store.setReplica(3);
    store.recordProfile(kDev, profiledReport("gold", 2048));
    fed::Delta d;
    d.replica = 3;
    d.incarnation = 0xabcdef0123456789ull;
    d.seqHigh = 1;
    d.records = store.records();
    return fed::encodeDelta(d);
}

} // namespace

TEST(FedDelta, EncodeDecodeRoundTrip)
{
    const support::Json doc = healthyDelta();
    fed::Delta out;
    ASSERT_TRUE(fed::decodeDelta(doc, out).ok());
    EXPECT_EQ(out.replica, 3u);
    EXPECT_EQ(out.incarnation, 0xabcdef0123456789ull);
    EXPECT_EQ(out.seqHigh, 1u);
    ASSERT_EQ(out.records.size(), 1u);
    EXPECT_EQ(out.records[0].signature, "gold");
    EXPECT_EQ(out.records[0].stamp.origin, 3u);
    EXPECT_TRUE(out.blacklist.empty());
    EXPECT_TRUE(out.extensions.empty());
}

TEST(FedDelta, TruncatedPayloadTextIsRejectedByTheParser)
{
    // A half-written HTTP body dies in Json::parse, before decode.
    const std::string whole = healthyDelta().dump(0);
    const std::string truncated = whole.substr(0, whole.size() / 2);
    EXPECT_THROW(support::Json::parse(truncated), std::runtime_error);
}

TEST(FedDelta, GarbledPayloadsAreTypedErrorsAndLeaveOutUntouched)
{
    // Every corruption below must surface as INVALID_ARGUMENT --
    // never a throw, never a partial application -- because deltas
    // arrive from half-dead peers over the network.
    fed::Delta out;
    out.replica = 42;
    out.seqHigh = 99;

    // Not an object at all.
    auto st = fed::decodeDelta(support::Json::array(), out);
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);

    // A future wire version.
    support::Json vnext = healthyDelta();
    vnext.set("fed_version", support::Json(2));
    st = fed::decodeDelta(vnext, out);
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);

    // Truncated framing: seq_high missing.
    support::Json noseq = support::Json::object();
    noseq.set("fed_version", support::Json(1));
    noseq.set("replica", support::Json(3));
    noseq.set("incarnation", support::Json("00ff"));
    st = fed::decodeDelta(noseq, out);
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("truncated or garbled"),
              std::string::npos);

    // Garbled record: an entry missing its key fields.
    support::Json badrec = healthyDelta();
    support::Json recs = support::Json::array();
    recs.push(support::Json::object());
    badrec.set("records", std::move(recs));
    st = fed::decodeDelta(badrec, out);
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("truncated or garbled"),
              std::string::npos);

    // Wrong kind in the records slot.
    support::Json badkind = healthyDelta();
    badkind.set("records", support::Json("not-an-array"));
    st = fed::decodeDelta(badkind, out);
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);

    // No failure above touched the output delta.
    EXPECT_EQ(out.replica, 42u);
    EXPECT_EQ(out.seqHigh, 99u);
    EXPECT_TRUE(out.records.empty());
}

TEST(SelectionStore, PredictedFieldsAndExtensionsRoundTrip)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("measured", 2048));
    store.seedPrediction("guessed", kDev, 4096, 1, "fast", 0.87);
    support::Json model = support::Json::object();
    model.set("weights", support::Json(3));
    store.setExtension("predictor", model);

    SelectionStore loaded;
    loaded.loadJson(store.toJson());
    auto guessed = loaded.lookup("guessed", kDev, 4096);
    ASSERT_TRUE(guessed.has_value());
    EXPECT_TRUE(guessed->predicted);
    EXPECT_DOUBLE_EQ(guessed->predictedConfidence, 0.87);
    auto measured = loaded.lookup("measured", kDev, 2048);
    ASSERT_TRUE(measured.has_value());
    EXPECT_FALSE(measured->predicted);
    auto ext = loaded.extension("predictor");
    ASSERT_TRUE(ext.has_value());
    EXPECT_EQ(ext->intOr("weights", 0), 3);
    EXPECT_FALSE(loaded.extension("other").has_value());
}

TEST(SelectionStore, ExtensionsSurviveFileRoundTrip)
{
    const std::string path = "store_test.ext.store.json";
    {
        SelectionStore store;
        store.recordProfile(kDev, profiledReport("k", 2048));
        support::Json model = support::Json::object();
        model.set("version", support::Json(1));
        store.setExtension("predictor", model);
        ASSERT_TRUE(store.saveFile(path).ok());
    }
    SelectionStore loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok());
    auto ext = loaded.extension("predictor");
    ASSERT_TRUE(ext.has_value());
    EXPECT_EQ(ext->intOr("version", 0), 1);

    // Null removes; a store without extensions emits none.
    loaded.setExtension("predictor", support::Json());
    EXPECT_FALSE(loaded.extension("predictor").has_value());
    EXPECT_FALSE(loaded.toJson().has("extensions"));
    std::remove(path.c_str());
}

TEST(SelectionStore, SeedPredictionServesWithoutProfiling)
{
    SelectionStore store;
    store.seedPrediction("k", kDev, 2048, 1, "fast", 0.9);
    auto rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(rec->predicted);
    EXPECT_EQ(rec->selected, 1);
    EXPECT_EQ(rec->selectedName, "fast");
    EXPECT_TRUE(rec->profiles.empty());
    EXPECT_EQ(rec->profiledLaunches, 0u);

    // Degenerate seeds are refused outright.
    store.seedPrediction("bad", kDev, 2048, -1, "fast", 0.9);
    store.seedPrediction("bad", kDev, 2048, 1, "", 0.9);
    EXPECT_FALSE(store.lookup("bad", kDev, 2048).has_value());
}

TEST(SelectionStore, MeasuredRecordOutranksPrediction)
{
    SelectionStore store;
    store.recordProfile(kDev, profiledReport("k", 2048)); // fast
    store.seedPrediction("k", kDev, 2048, 0, "slow", 0.99);
    auto rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->predicted);
    EXPECT_EQ(rec->selectedName, "fast"); // the measurement stands

    // An invalidated record is not seeded over either: the store
    // invalidated it on purpose, so the next answer is a profile.
    store.invalidate("k", kDev, bucketOf(2048));
    store.seedPrediction("k", kDev, 2048, 0, "slow", 0.8);
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());
    const auto all = store.records();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_FALSE(all[0].valid);
    EXPECT_FALSE(all[0].predicted);
    EXPECT_EQ(all[0].selectedName, "fast");
    EXPECT_EQ(all[0].profiledLaunches, 1u);

    // Nor is a predicted record replaced by a second guess.
    store.seedPrediction("g", kDev, 2048, 1, "fast", 0.7);
    store.seedPrediction("g", kDev, 2048, 0, "slow", 0.99);
    rec = store.lookup("g", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selectedName, "fast");
    EXPECT_DOUBLE_EQ(rec->predictedConfidence, 0.7);
}

TEST(SelectionStore, ProfileClearsPredictedFlag)
{
    SelectionStore store;
    store.seedPrediction("k", kDev, 2048, 0, "slow", 0.7);
    store.recordProfile(kDev, profiledReport("k", 2048)); // measures
    auto rec = store.lookup("k", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->predicted);
    EXPECT_DOUBLE_EQ(rec->predictedConfidence, 0.0);
    EXPECT_EQ(rec->selectedName, "fast");
}

TEST(SelectionStore, PredictedRecordFailureDemotesToForcedProfile)
{
    SelectionStore store;
    std::vector<SelectionRecord> demoted;
    store.setDemotionObserver(
        [&](const SelectionRecord &r) { demoted.push_back(r); });
    store.seedPrediction("k", kDev, 2048, 1, "fast", 0.9);

    // A predicted record has no profiled runner-up: the first failure
    // invalidates it outright, so the next lookup misses and forces a
    // real profiling pass -- and the demotion feed saw the bad guess.
    EXPECT_EQ(store.reportFailure("k", kDev, 2048),
              Observation::Invalidated);
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());
    ASSERT_EQ(demoted.size(), 1u);
    EXPECT_TRUE(demoted[0].predicted);
    EXPECT_EQ(demoted[0].selectedName, "fast");

    // Failures on measured records do not feed the demotion observer.
    store.recordProfile(kDev, profiledReport("k", 2048));
    store.reportFailure("k", kDev, 2048);
    EXPECT_EQ(demoted.size(), 1u);
}

TEST(SelectionStore, PredictedRecordDriftDemotes)
{
    SelectionStore store; // driftFactor 1.5
    std::vector<SelectionRecord> demoted;
    store.setDemotionObserver(
        [&](const SelectionRecord &r) { demoted.push_back(r); });
    store.seedPrediction("k", kDev, 2048, 1, "fast", 0.9);

    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Ok); // seeds the baseline
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 30.0)),
              Observation::Invalidated);
    ASSERT_EQ(demoted.size(), 1u);
    EXPECT_TRUE(demoted[0].predicted);
}

TEST(SelectionStore, PredictionProbationForcesConfirmingProfile)
{
    StoreConfig cfg;
    cfg.predictedProbationLaunches = 3;
    SelectionStore store(cfg);
    std::vector<SelectionRecord> demoted;
    store.setDemotionObserver(
        [&](const SelectionRecord &r) { demoted.push_back(r); });
    store.seedPrediction("k", kDev, 2048, 1, "fast", 0.9);

    // Two well-behaved launches ride the prediction; the third ends
    // probation and invalidates it so a real profile confirms the
    // guess.  Scheduled validation is NOT a mis-prediction: the
    // demotion feed stays silent and the counters stay reconcilable.
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Ok);
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Ok);
    EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
              Observation::Invalidated);
    EXPECT_FALSE(store.lookup("k", kDev, 2048).has_value());
    EXPECT_TRUE(demoted.empty());

    // Measured records never expire this way.
    store.recordProfile(kDev, profiledReport("k", 2048));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(store.observePlain(kDev, plainReport("k", 2048, 10.0)),
                  Observation::Ok);
}

TEST(SelectionStore, ProfileObserverFeedsEveryProfilingPass)
{
    SelectionStore store;
    std::vector<SelectionRecord> fed;
    store.setProfileObserver(
        [&](const SelectionRecord &r) { fed.push_back(r); });
    store.recordProfile(kDev, profiledReport("a", 2048));
    store.recordProfile(kDev, profiledReport("b", 300, 0));
    store.recordProfile(kDev, plainReport("c", 2048, 10.0)); // ignored
    ASSERT_EQ(fed.size(), 2u);
    EXPECT_EQ(fed[0].signature, "a");
    EXPECT_EQ(fed[0].selectedName, "fast");
    EXPECT_EQ(fed[1].signature, "b");
    EXPECT_EQ(fed[1].selectedName, "slow");

    // The observer may call back into the store: recursive use must
    // not deadlock (the feed fires outside the lock).
    store.setProfileObserver([&](const SelectionRecord &r) {
        (void)store.lookup(r.signature, r.device, 2048);
    });
    store.recordProfile(kDev, profiledReport("d", 2048));

    // Detaching stops the feed.
    store.setProfileObserver(nullptr);
    store.recordProfile(kDev, profiledReport("e", 2048));
    EXPECT_EQ(fed.size(), 2u);
}

TEST(SelectionStore, BlacklistDemotesPredictedRecords)
{
    SelectionStore store;
    std::vector<SelectionRecord> demoted;
    store.setDemotionObserver(
        [&](const SelectionRecord &r) { demoted.push_back(r); });
    store.seedPrediction("k", kDev, 2048, 1, "fast", 0.9);
    store.seedPrediction("k", kDev, 8192, 1, "fast", 0.9);
    store.recordProfile(kDev, profiledReport("other", 2048)); // fast too

    // The guard blacklisting the predicted winner is the strongest
    // possible mis-prediction signal: both predicted records demote
    // (and feed the corrective observer); the measured record of the
    // other signature just invalidates, no feed.
    store.blacklistVariant("k", "fast", kDev, "mismatch");
    store.blacklistVariant("other", "fast", kDev, "mismatch");
    EXPECT_EQ(demoted.size(), 2u);
    for (const auto &r : demoted) {
        EXPECT_EQ(r.signature, "k");
        EXPECT_TRUE(r.predicted);
    }
}

TEST(SelectionStore, DeeplyNestedFileIsDataLossNotACrash)
{
    // 200 KB of '[' used to overflow the parser's stack.
    const std::string path = "store_test.nested.store.json";
    spit(path, std::string(200 * 1024, '['));
    SelectionStore loaded;
    loaded.recordProfile(kDev, profiledReport("existing", 512));
    const auto st = loaded.loadFile(path);
    EXPECT_EQ(st.code(), support::StatusCode::DataLoss);
    EXPECT_NE(st.message().find("nesting too deep"), std::string::npos);
    EXPECT_EQ(loaded.size(), 1u);
    std::remove(path.c_str());
}

TEST(FedDelta, DeeplyNestedPeerBodyIsRejected)
{
    // A peer whose /fed/delta answer is 200 KB of '[': the pull must
    // count an invalid delta and leave the store alone, not crash.
    namespace net = support::net;
    net::HttpServer peer;
    ASSERT_TRUE(peer.start(0, [](const net::HttpRequest &) {
                        net::HttpResponse out;
                        out.contentType = "application/json";
                        out.body = std::string(200 * 1024, '[');
                        return out;
                    })
                    .ok());
    SelectionStore store;
    fed::ReplicatorConfig cfg;
    cfg.fleetSize = 2;
    cfg.peers.push_back("127.0.0.1:" + std::to_string(peer.port()));
    fed::Replicator rep(store, cfg);
    support::MetricsRegistry reg;
    rep.bindMetrics(&reg);
    rep.syncNow();
    EXPECT_EQ(reg.counter("fed.delta_invalid").value(), 1u);
    EXPECT_EQ(reg.counter("fed.apply_record").value(), 0u);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_NE(rep.peersJson().dump(0).find("nesting too deep"),
              std::string::npos);
}
