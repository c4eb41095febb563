/**
 * @file
 * Batched serving + allocation-free hot path tests (DESIGN §10).
 *
 * Covers the batching tentpole end to end: fused launches produce
 * byte-identical per-job outputs, done callbacks stay exactly-once on
 * every terminal path inside a batch (shed, cancel, demote), and a
 * steady-state submit->complete cycle performs zero heap allocations
 * on the submitter thread (asserted through a global operator-new
 * hook) while the shard pool's fresh counts stay flat.  Also covers
 * the redesigned submission surface: ServiceConfig::validate(),
 * registerKernelPool() before and after start(), and JobSpec /
 * submitMany().
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/dispatch_service.hh"
#include "serve/loadgen.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"

#include "alloc_hook.hh"

using namespace dysel;
using namespace dysel::serve;

namespace {

constexpr std::uint32_t laneCount = 8;

/** Position digest every variant computes (see loadgen). */
std::int32_t
digestOf(std::uint64_t u)
{
    return static_cast<std::int32_t>((u * 2654435761ull) & 0x7fffffff);
}

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
            g.store(out, u, digestOf(u), lane);
            g.flops(lane, flops_per_unit);
        }
    };
    return v;
}

/** Kernel that parks its first invocation until the gate opens. */
struct Gate
{
    std::atomic<std::uint64_t> entered{0};
    std::atomic<bool> release{false};

    void open() { release.store(true, std::memory_order_release); }

    void awaitEntered() const
    {
        while (entered.load(std::memory_order_acquire) == 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
    }
};

kdp::KernelVariant
gatedKernel(const char *name, Gate &gate, std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [&gate, flops_per_unit](kdp::GroupCtx &g,
                                   const kdp::KernelArgs &args) {
        gate.entered.fetch_add(1, std::memory_order_acq_rel);
        while (!gate.release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, digestOf(u), lane);
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

/** Install the standard two-variant pool for @p sig. */
support::Status
installPool(DispatchService &svc, const std::string &sig)
{
    return svc.registerKernelPool([sig](runtime::Runtime &rt) {
        rt.addKernel(sig, workKernel("slow", 4000));
        rt.addKernel(sig, workKernel("fast", 100));
        rt.setKernelInfo(sig, regularInfo(sig));
    });
}

/** Every out[0, units) slot must hold its position digest. */
void
expectDigestOutput(const kdp::Buffer<std::int32_t> &out,
                   std::uint64_t units)
{
    for (std::uint64_t u = 0; u < units; ++u)
        ASSERT_EQ(out.at(u), digestOf(u)) << "unit " << u;
}

} // namespace

// ---- config validation ----------------------------------------------

TEST(ServiceConfigValidate, AcceptsDefaultsAndSaneBatchConfigs)
{
    EXPECT_TRUE(ServiceConfig().validate().ok());

    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    cfg.batch.windowNs = 100'000;
    cfg.maxQueueDepth = 16;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(ServiceConfigValidate, RejectsNonsenseConfigs)
{
    ServiceConfig cfg;
    cfg.maxAttempts = 0;
    EXPECT_EQ(cfg.validate().code(),
              support::StatusCode::InvalidArgument);

    cfg = ServiceConfig();
    cfg.maxAttempts = 33; // backoff shift overflows
    EXPECT_FALSE(cfg.validate().ok());

    cfg = ServiceConfig();
    cfg.breakerThreshold = 0;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = ServiceConfig();
    cfg.batch.maxJobs = 0;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = ServiceConfig();
    cfg.maxQueueDepth = 2;
    cfg.batch.maxJobs = 4; // a full batch could never accumulate
    EXPECT_FALSE(cfg.validate().ok());

    cfg = ServiceConfig();
    cfg.batch.windowNs = 100; // window without batching
    EXPECT_FALSE(cfg.validate().ok());
}

TEST(ServiceConfigValidate, ConstructorThrowsOnInvalidConfig)
{
    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.maxAttempts = 0;
    EXPECT_THROW(DispatchService(store, cfg), std::invalid_argument);
}

// ---- registerKernelPool ----------------------------------------------

TEST(RegisterKernelPool, RejectsEmptyInstallerAndThrowingInstaller)
{
    store::SelectionStore store;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());

    EXPECT_EQ(svc.registerKernelPool(nullptr).code(),
              support::StatusCode::InvalidArgument);

    const auto st = svc.registerKernelPool([](runtime::Runtime &) {
        throw std::runtime_error("boom");
    });
    EXPECT_EQ(st.code(), support::StatusCode::Internal);
}

TEST(RegisterKernelPool, AppliesToDevicesAddedLater)
{
    store::SelectionStore store;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());
    // The pool was registered before this device existed.
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.start();

    constexpr std::uint64_t kUnits = 512;
    std::vector<JobSpec> specs(4);
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (int i = 0; i < 4; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    for (int i = 0; i < 4; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
    }
    auto handles = svc.submitMany(specs);
    for (auto &h : handles)
        EXPECT_TRUE(h.result().ok()) << h.result().status.toString();
    svc.stop();
}

TEST(RegisterKernelPool, InstallsAfterStartWithoutCrossThreadAccess)
{
    store::SelectionStore store;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    // A pool registered while the workers are live is applied by each
    // worker on its own thread before its next job.
    ASSERT_TRUE(installPool(svc, "late").ok());

    constexpr std::uint64_t kUnits = 512;
    kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global,
                                  "bt.out");
    JobSpec spec;
    spec.signature("late").units(kUnits);
    spec.mutableArgs().add(out).add(static_cast<std::int64_t>(kUnits));
    JobHandle h;
    svc.submitMany(std::span<const JobSpec>(&spec, 1),
                   std::span<JobHandle>(&h, 1));
    EXPECT_TRUE(h.result().ok()) << h.result().status.toString();
    expectDigestOutput(out, kUnits);
    svc.stop();
}

// ---- fused launches --------------------------------------------------

/**
 * Sub-threshold jobs (too small to profile) with different unit
 * counts in the same size bucket fuse into one launch; every member's
 * output slice is exact -- the fused wrapper rebases each group onto
 * its member's own args.
 */
TEST(Batch, FusesSmallJobsWithExactPerJobOutputSlices)
{
    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    // All in bucket 6 (64..127 units), none profilable.
    const std::array<std::uint64_t, 4> units = {96, 104, 112, 120};
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::uint64_t u : units)
        outs.emplace_back(u, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
        specs[i].signature("bk").units(units[i]);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(units[i]));
    }

    // One submitMany pushes all four under one shard lock before the
    // idle worker wakes, so the gather is deterministic.
    auto handles = svc.submitMany(specs);
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const JobResult &r = handles[i].result();
        ASSERT_TRUE(r.ok()) << r.status.toString();
        EXPECT_NE(r.batchedWith, 0u);
        EXPECT_TRUE(r.report.fused);
        EXPECT_EQ(r.report.fusedJobs, units.size());
        EXPECT_EQ(r.report.totalUnits, units[i]);
        expectDigestOutput(outs[i], units[i]);
    }
    svc.drain();
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("batch.launches"), 1u);
    EXPECT_EQ(m.counterValue("batch.jobs"), units.size());
    svc.stop();
}

/**
 * Profilable jobs batch only once their key's record exists: the cold
 * head profiles solo, and a later burst fuses warm behind the stored
 * winner with zero profiled units.
 */
TEST(Batch, WarmBatchServesFromOneStoreConsult)
{
    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    cfg.batch.windowNs = 1'000'000; // 1 ms top-up window
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    constexpr std::uint64_t kUnits = 512; // profilable
    kdp::Buffer<std::int32_t> warmOut(kUnits, kdp::MemSpace::Global,
                                      "bt.warm");
    JobSpec warm;
    warm.signature("bk").units(kUnits);
    warm.mutableArgs().add(warmOut).add(
        static_cast<std::int64_t>(kUnits));
    JobHandle wh;
    svc.submitMany(std::span<const JobSpec>(&warm, 1),
                   std::span<JobHandle>(&wh, 1));
    ASSERT_TRUE(wh.result().ok());
    ASSERT_TRUE(wh.result().report.profiled);
    svc.drain();

    constexpr std::size_t kJobs = 8;
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kJobs; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
    }
    auto handles = svc.submitMany(specs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        const JobResult &r = handles[i].result();
        ASSERT_TRUE(r.ok()) << r.status.toString();
        EXPECT_TRUE(r.warmStart);
        EXPECT_NE(r.batchedWith, 0u);
        EXPECT_TRUE(r.report.fused);
        EXPECT_EQ(r.report.selectedName, "fast");
        EXPECT_EQ(r.report.profiledUnits, 0u);
        expectDigestOutput(outs[i], kUnits);
    }
    svc.drain();
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("batch.launches"), 1u);
    EXPECT_EQ(m.counterValue("batch.jobs"), kJobs);
    svc.stop();
}

/**
 * store.hit + store.miss count each job exactly once, whichever path
 * ran it: a cold solo job, a warm batch's head and members, a cold
 * head that profiled solo before its burst fused behind its record,
 * and a cold (sub-threshold) batch.
 */
TEST(Batch, EveryJobCountsOneStoreHitOrMiss)
{
    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    cfg.batch.windowNs = 1'000'000;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();
    const auto &m = svc.metrics();

    std::uint64_t jobs = 0;
    auto burst = [&](std::uint64_t units, std::size_t n) {
        std::vector<kdp::Buffer<std::int32_t>> outs;
        for (std::size_t i = 0; i < n; ++i)
            outs.emplace_back(units, kdp::MemSpace::Global, "bt.out");
        std::vector<JobSpec> specs(n);
        for (std::size_t i = 0; i < n; ++i) {
            specs[i].signature("bk").units(units);
            specs[i].mutableArgs().add(outs[i]).add(
                static_cast<std::int64_t>(units));
        }
        for (const JobHandle &h : svc.submitMany(specs))
            EXPECT_TRUE(h.result().ok()) << h.result().status.toString();
        svc.drain();
        jobs += n;
        EXPECT_EQ(m.counterValue("store.hit") + m.counterValue("store.miss"),
                  jobs)
            << n << " jobs of " << units << " units";
    };
    burst(512, 1);  // cold, profilable: profiles solo
    burst(512, 8);  // warm: one fused launch, head and 7 members
    burst(1024, 6); // the cold head profiles solo, 5 fuse behind it
    burst(96, 4);   // below the profiling threshold: a cold batch

    EXPECT_EQ(m.counterValue("store.miss"), 1u + 1u + 4u);
    EXPECT_EQ(m.counterValue("store.hit"), 8u + 5u);
    EXPECT_EQ(m.counterValue("batch.launches"), 3u);
    EXPECT_EQ(m.counterValue("batch.jobs"), 8u + 5u + 4u);
    svc.stop();
}

/**
 * Batched and unbatched runs of the same seeded workload produce
 * byte-identical job outputs (XOR-combined per-job FNV digests) --
 * the end-to-end equivalence check over the whole service.
 */
TEST(Batch, BatchedAndUnbatchedRunsAreByteIdentical)
{
    LoadGenConfig cfg;
    cfg.submitters = 4;
    cfg.devices = 2;
    cfg.signatures = 2;
    cfg.sizeClasses = 2;
    cfg.baseUnits = 256;
    cfg.jobsPerSubmitter = 48;
    cfg.burst = 8;
    cfg.seed = 7;

    const LoadGenReport off = runLoadGen(cfg);
    ASSERT_EQ(off.jobsCompleted, off.jobsSubmitted);
    EXPECT_EQ(off.batchLaunches, 0u);

    cfg.maxBatchJobs = 8;
    cfg.batchWindowNs = 200'000;
    const LoadGenReport on = runLoadGen(cfg);
    ASSERT_EQ(on.jobsCompleted, on.jobsSubmitted);
    EXPECT_GT(on.batchJobs, 0u);

    EXPECT_EQ(off.outputChecksum, on.outputChecksum);
}

// ---- exactly-once callbacks on every terminal path -------------------

/**
 * A queued job cancelled while a batch forms around it is finished
 * exactly once with Cancelled; the rest of the batch fuses and
 * completes normally.
 */
TEST(BatchCallbacks, CancelInsideGatheredBatchFiresExactlyOnce)
{
    constexpr std::size_t kJobs = 6;
    constexpr std::uint64_t kUnits = 64; // sub-threshold
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("only", gate, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    // Pin the worker inside a solo job so the batchable jobs queue.
    kdp::Buffer<std::int32_t> gateOut(kUnits, kdp::MemSpace::Global,
                                      "bt.gate");
    JobSpec gateSpec;
    gateSpec.signature("gate").units(kUnits).noBatch();
    gateSpec.mutableArgs().add(gateOut).add(
        static_cast<std::int64_t>(kUnits));
    JobHandle gateHandle;
    svc.submitMany(std::span<const JobSpec>(&gateSpec, 1),
                   std::span<JobHandle>(&gateHandle, 1));
    gate.awaitEntered();

    std::array<std::atomic<int>, kJobs> fired{};
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kJobs; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
        specs[i].onDone([&fired, i](const JobResult &) {
            fired[i].fetch_add(1, std::memory_order_acq_rel);
        });
    }
    auto handles = svc.submitMany(specs);

    // Withdraw two of the queued jobs before the worker gets to them.
    ASSERT_TRUE(handles[1].cancel());
    ASSERT_TRUE(handles[4].cancel());
    gate.open();
    svc.drain();

    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(fired[i].load(), 1) << "job " << i;
        const JobResult &r = handles[i].result();
        if (i == 1 || i == 4) {
            EXPECT_EQ(r.status.code(), support::StatusCode::Cancelled);
        } else {
            EXPECT_TRUE(r.ok()) << r.status.toString();
            EXPECT_NE(r.batchedWith, 0u);
            expectDigestOutput(outs[i], kUnits);
        }
    }
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.cancelled"), 2u);
    EXPECT_GE(m.counterValue("batch.launches"), 1u);
    svc.stop();
}

/**
 * A fused member whose deadline is smaller than its share of the
 * fused launch fails the way a solo job does: DeadlineExceeded, one
 * recover.timeouts, one jobs.failed, the worker's flight dump attached,
 * and its successful launch still counted on the device.  The other
 * members complete normally.
 */
TEST(BatchCallbacks, MemberDeadlineFailsLikeSoloJob)
{
    constexpr std::size_t kJobs = 4;
    constexpr std::size_t kLate = 2;
    constexpr std::uint64_t kUnits = 64; // sub-threshold
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("only", gate, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    // Pin the worker inside a solo job so the batchable jobs queue.
    kdp::Buffer<std::int32_t> gateOut(kUnits, kdp::MemSpace::Global,
                                      "bt.gate");
    JobSpec gateSpec;
    gateSpec.signature("gate").units(kUnits).noBatch();
    gateSpec.mutableArgs().add(gateOut).add(
        static_cast<std::int64_t>(kUnits));
    JobHandle gateHandle;
    svc.submitMany(std::span<const JobSpec>(&gateSpec, 1),
                   std::span<JobHandle>(&gateHandle, 1));
    gate.awaitEntered();

    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kJobs; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
    }
    specs[kLate].deadline(1); // 1 ns: below any share of the launch
    auto handles = svc.submitMany(specs);
    gate.open();
    svc.drain();

    for (std::size_t i = 0; i < kJobs; ++i) {
        const JobResult &r = handles[i].result();
        EXPECT_NE(r.batchedWith, 0u) << "job " << i;
        if (i == kLate) {
            EXPECT_EQ(r.status.code(),
                      support::StatusCode::DeadlineExceeded);
            EXPECT_TRUE(r.status.hasPayload());
            EXPECT_NE(r.status.payload().find("phase=failed"),
                      std::string::npos);
            EXPECT_NE(r.status.payload().find("phase=batch"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(r.ok()) << r.status.toString();
            expectDigestOutput(outs[i], kUnits);
        }
    }
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("batch.launches"), 1u);
    EXPECT_EQ(m.counterValue("recover.timeouts"), 1u);
    EXPECT_EQ(m.counterValue("jobs.failed"), 1u);
    EXPECT_EQ(m.counterValue("jobs.completed"), kJobs);
    // Every launch succeeded on the device, the late member's too.
    EXPECT_EQ(m.counterValue(support::MetricsRegistry::labeled(
                  "device.jobs", "device", "dev0")),
              kJobs + 1);
    svc.stop();
}

/**
 * Jobs shed by admission control while the worker is pinned fire
 * their callbacks exactly once (on the submitter thread) with
 * RESOURCE_EXHAUSTED; the admitted jobs batch and complete.
 */
TEST(BatchCallbacks, ShedDuringBatchingFiresExactlyOnce)
{
    constexpr std::size_t kJobs = 6;
    constexpr std::uint64_t kUnits = 64;
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 4;
    cfg.maxQueueDepth = 4;
    cfg.admission = AdmissionPolicy::Shed;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("only", gate, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    kdp::Buffer<std::int32_t> gateOut(kUnits, kdp::MemSpace::Global,
                                      "bt.gate");
    JobSpec gateSpec;
    gateSpec.signature("gate").units(kUnits).noBatch();
    gateSpec.mutableArgs().add(gateOut).add(
        static_cast<std::int64_t>(kUnits));
    JobHandle gateHandle;
    svc.submitMany(std::span<const JobSpec>(&gateSpec, 1),
                   std::span<JobHandle>(&gateHandle, 1));
    gate.awaitEntered();

    // 6 submissions against a depth-4 queue: 4 admitted, 2 shed.
    std::array<std::atomic<int>, kJobs> fired{};
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kJobs; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
        specs[i].onDone([&fired, i](const JobResult &) {
            fired[i].fetch_add(1, std::memory_order_acq_rel);
        });
    }
    auto handles = svc.submitMany(specs);
    gate.open();
    svc.drain();

    std::size_t shed = 0, completed = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(fired[i].load(), 1) << "job " << i;
        const JobResult &r = handles[i].result();
        if (r.status.code() == support::StatusCode::ResourceExhausted) {
            ++shed;
        } else {
            ASSERT_TRUE(r.ok()) << r.status.toString();
            expectDigestOutput(outs[i], kUnits);
            ++completed;
        }
    }
    EXPECT_EQ(shed, 2u);
    EXPECT_EQ(completed, 4u);
    EXPECT_EQ(svc.metrics().counterValue("admission.shed"), 2u);
    svc.stop();
}

/**
 * Regression: batch gathering extracts queued jobs without a pop, so
 * it must wake submitters blocked under AdmissionPolicy::Block
 * itself.  With more blocked submitters than pops (batches drain the
 * queue by extraction), a missing wakeup left a submitter parked on a
 * drained queue forever, deadlocking it and drain().
 */
TEST(BatchCallbacks, BlockedSubmittersReleasedWhenBatchDrainsQueue)
{
    constexpr std::size_t kBlocked = 3;
    constexpr std::uint64_t kUnits = 64; // sub-threshold, batchable
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 2;
    cfg.batch.windowNs = 200'000;
    cfg.maxQueueDepth = 2;
    cfg.admission = AdmissionPolicy::Block;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("only", gate, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    // Pin the worker, then fill the depth-2 queue with a fusable pair.
    kdp::Buffer<std::int32_t> gateOut(kUnits, kdp::MemSpace::Global,
                                      "bt.gate");
    JobSpec gateSpec;
    gateSpec.signature("gate").units(kUnits).noBatch();
    gateSpec.mutableArgs().add(gateOut).add(
        static_cast<std::int64_t>(kUnits));
    JobHandle gateHandle;
    svc.submitMany(std::span<const JobSpec>(&gateSpec, 1),
                   std::span<JobHandle>(&gateHandle, 1));
    gate.awaitEntered();

    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < 2 + kBlocked; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> fillSpecs(2);
    for (std::size_t i = 0; i < 2; ++i) {
        fillSpecs[i].signature("bk").units(kUnits);
        fillSpecs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
    }
    auto fillHandles = svc.submitMany(fillSpecs);

    // Three more submitters block against the full queue; every pop
    // wakes at most one of them, so batch extraction must wake the
    // rest.
    std::array<JobHandle, kBlocked> blockedHandles;
    std::vector<std::thread> submitters;
    for (std::size_t i = 0; i < kBlocked; ++i) {
        submitters.emplace_back([&, i] {
            JobSpec spec;
            spec.signature("bk").units(kUnits);
            spec.mutableArgs().add(outs[2 + i]).add(
                static_cast<std::int64_t>(kUnits));
            svc.submitMany(std::span<const JobSpec>(&spec, 1),
                           std::span<JobHandle>(
                               &blockedHandles[i], 1));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    gate.open();
    for (auto &t : submitters)
        t.join();
    svc.drain();

    EXPECT_TRUE(gateHandle.result().ok());
    for (auto &h : fillHandles)
        EXPECT_TRUE(h.result().ok()) << h.result().status.toString();
    for (std::size_t i = 0; i < kBlocked; ++i) {
        EXPECT_TRUE(blockedHandles[i].result().ok())
            << blockedHandles[i].result().status.toString();
        expectDigestOutput(outs[2 + i], kUnits);
    }
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.completed"), 1 + 2 + kBlocked);
    EXPECT_GE(m.counterValue("admission.blocked"), 1u);
    svc.stop();
}

/**
 * A fused launch that fails as a whole demotes every member to solo
 * re-execution instead of failing the batch; each member's callback
 * still fires exactly once when its solo attempts settle.
 */
TEST(BatchCallbacks, FusedFailureDemotesToSoloWithExactlyOnceCallbacks)
{
    constexpr std::size_t kJobs = 6;
    constexpr std::uint64_t kUnits = 64;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    cfg.maxAttempts = 1; // solo re-execution fails terminally
    DispatchService svc(store, cfg);
    const unsigned idx =
        svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());

    // Every launch fails: the fused launch is demoted, and each solo
    // re-execution then fails on its own single attempt.
    sim::FaultConfig fcfg;
    fcfg.launchFailProb = 1.0;
    fcfg.seed = 0xbadbad;
    sim::FaultInjector faults(fcfg);
    svc.device(idx).setFaultInjector(&faults);
    svc.start();

    std::array<std::atomic<int>, kJobs> fired{};
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kJobs; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
        specs[i].onDone([&fired, i](const JobResult &) {
            fired[i].fetch_add(1, std::memory_order_acq_rel);
        });
    }
    auto handles = svc.submitMany(specs);
    svc.drain();

    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(fired[i].load(), 1) << "job " << i;
        EXPECT_FALSE(handles[i].result().ok());
    }
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("batch.demoted"), kJobs);
    EXPECT_EQ(m.counterValue("jobs.failed"), kJobs);
    svc.stop();
}

// ---- allocation-free hot path ----------------------------------------

/**
 * After warm-up, a steady-state submit->complete cycle performs ZERO
 * heap allocations on the submitter thread (operator-new hook), and
 * the shard pool mints no fresh states or shells -- everything is
 * recycled.
 */
TEST(BatchAlloc, SteadyStateSubmitIsAllocationFree)
{
    constexpr std::size_t kBurst = 8;
    constexpr std::uint64_t kUnits = 64; // sub-threshold: no profiling
    constexpr int kWarmupIters = 300;
    constexpr int kMeasuredIters = 100;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = kBurst;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPool(svc, "bk").ok());
    svc.start();

    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kBurst; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "bt.out");
    std::vector<JobSpec> specs(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
        specs[i].signature("bk").units(kUnits);
        specs[i].mutableArgs().add(outs[i]).add(
            static_cast<std::int64_t>(kUnits));
    }
    std::vector<JobHandle> handles(kBurst);
    const std::span<const JobSpec> specSpan(specs.data(), kBurst);
    const std::span<JobHandle> handleSpan(handles.data(), kBurst);

    auto oneIteration = [&] {
        svc.submitMany(specSpan, handleSpan);
        for (std::size_t i = 0; i < kBurst; ++i) {
            handles[i].wait();
            handles[i] = JobHandle();
        }
    };

    // Warm-up: reach the pool's steady high-water mark (states,
    // shells, ring capacity, thread-local routing scratch).
    for (int it = 0; it < kWarmupIters; ++it)
        oneIteration();
    svc.drain();

    const BufferPool::Stats before = svc.poolStats(0);
    const std::uint64_t submitterAllocs = test::allocationsOf([&] {
        for (int it = 0; it < kMeasuredIters; ++it)
            oneIteration();
    });
    svc.drain();
    const BufferPool::Stats after = svc.poolStats(0);

    EXPECT_EQ(submitterAllocs, 0u)
        << "steady-state submit path allocated on the submitter thread";
    EXPECT_EQ(after.freshStates, before.freshStates)
        << "pool minted fresh job states in the steady window";
    EXPECT_EQ(after.freshShells, before.freshShells)
        << "pool minted fresh queue shells in the steady window";
    EXPECT_GT(after.reusedStates, before.reusedStates);
    EXPECT_GT(after.reusedShells, before.reusedShells);

    // And the jobs actually ran -- batched.
    EXPECT_GT(svc.metrics().counterValue("batch.launches"), 0u);
    svc.stop();
}
