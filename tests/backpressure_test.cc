/**
 * @file
 * Admission-control unit tests: bounded per-device queues under the
 * Shed and Block policies, and cancellation of a queued job behind a
 * profiling leader.
 *
 * A gating kernel (blocks on a shared atomic until the test releases
 * it) pins the single worker so queue occupancy is deterministic:
 * with the worker stuck inside a launch, the test controls exactly
 * how many jobs sit in the device queue when the next submit() runs.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "serve/dispatch_service.hh"
#include "sim/cpu/cpu_device.hh"
#include "submit_one.hh"

using namespace dysel;
using namespace dysel::serve;

namespace {

constexpr std::uint32_t laneCount = 8;

/** Shared gate: the kernel's first invocation parks on it. */
struct Gate
{
    std::atomic<std::uint64_t> entered{0};
    std::atomic<bool> release{false};

    void open() { release.store(true, std::memory_order_release); }

    /** Busy-wait (with sleeps) until the kernel is parked inside. */
    void awaitEntered() const
    {
        while (entered.load(std::memory_order_acquire) == 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
    }
};

/**
 * Kernel whose first group invocation blocks until the gate opens;
 * later invocations (including re-launches after release) pass
 * straight through.
 */
kdp::KernelVariant
gatedKernel(const char *name, Gate &gate, std::int32_t marker,
            std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [&gate, marker, flops_per_unit](kdp::GroupCtx &g,
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
            g.store(out, u, marker, lane);
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

JobSpec
gateJob(kdp::Buffer<std::int32_t> &out, std::uint64_t units)
{
    JobSpec spec;
    spec.signature("gate").units(units);
    spec.mutableArgs().add(out).add(static_cast<std::int64_t>(units));
    return spec;
}

} // namespace

/**
 * Shed policy: with the worker pinned and the queue at maxQueueDepth,
 * the next submit() is rejected immediately with RESOURCE_EXHAUSTED
 * -- handle already terminal, done callback already fired on the
 * submitter thread, admission.shed counted.
 */
TEST(Backpressure, ShedReturnsResourceExhaustedWhenQueueFull)
{
    // 8 units < minUnitsForProfiling: plain launches, no coalescing.
    constexpr std::uint64_t kUnits = 8;
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.coalesce = false;
    cfg.maxQueueDepth = 1;
    cfg.admission = AdmissionPolicy::Shed;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("only", gate, 7, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    svc.start();

    kdp::Buffer<std::int32_t> out1(kUnits, kdp::MemSpace::Global, "bp.1");
    kdp::Buffer<std::int32_t> out2(kUnits, kdp::MemSpace::Global, "bp.2");
    kdp::Buffer<std::int32_t> out3(kUnits, kdp::MemSpace::Global, "bp.3");

    // Job 1 occupies the worker (parked inside the kernel) ...
    JobHandle h1 = submitOne(svc, gateJob(out1, kUnits));
    gate.awaitEntered();
    // ... job 2 fills the depth-1 queue ...
    JobHandle h2 = submitOne(svc, gateJob(out2, kUnits));
    // ... so job 3 must be shed, synchronously.
    std::atomic<bool> callbackFired{false};
    JobSpec job3 = gateJob(out3, kUnits);
    job3.onDone([&callbackFired](const JobResult &r) {
        EXPECT_EQ(r.status.code(),
                  support::StatusCode::ResourceExhausted);
        callbackFired.store(true, std::memory_order_release);
    });
    JobHandle h3 = submitOne(svc, job3);
    EXPECT_TRUE(h3.done());
    EXPECT_TRUE(callbackFired.load(std::memory_order_acquire));
    const JobResult &r3 = h3.result();
    EXPECT_EQ(r3.status.code(),
              support::StatusCode::ResourceExhausted);
    EXPECT_NE(r3.id, 0u);

    gate.open();
    EXPECT_TRUE(h1.result().ok()) << h1.result().status.toString();
    EXPECT_TRUE(h2.result().ok()) << h2.result().status.toString();
    svc.stop();

    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.submitted"), 3u);
    EXPECT_EQ(m.counterValue("jobs.completed"), 2u);
    EXPECT_EQ(m.counterValue("admission.shed"), 1u);
}

/**
 * Block policy: the same full-queue submit() parks the submitter
 * instead of rejecting, and completes once the queue drains.
 */
TEST(Backpressure, BlockParksSubmitterUntilQueueDrains)
{
    constexpr std::uint64_t kUnits = 8;
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.coalesce = false;
    cfg.maxQueueDepth = 1;
    cfg.admission = AdmissionPolicy::Block;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("only", gate, 7, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    svc.start();

    kdp::Buffer<std::int32_t> out1(kUnits, kdp::MemSpace::Global, "bp.1");
    kdp::Buffer<std::int32_t> out2(kUnits, kdp::MemSpace::Global, "bp.2");
    kdp::Buffer<std::int32_t> out3(kUnits, kdp::MemSpace::Global, "bp.3");

    JobHandle h1 = submitOne(svc, gateJob(out1, kUnits));
    gate.awaitEntered();
    JobHandle h2 = submitOne(svc, gateJob(out2, kUnits));

    std::atomic<bool> submitReturned{false};
    JobHandle h3;
    std::thread submitter([&] {
        h3 = submitOne(svc, gateJob(out3, kUnits));
        submitReturned.store(true, std::memory_order_release);
    });
    // The queue is full and the worker is parked: submit() must still
    // be blocked after a generous grace period.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(submitReturned.load(std::memory_order_acquire));

    gate.open();
    submitter.join();
    EXPECT_TRUE(submitReturned.load(std::memory_order_acquire));
    EXPECT_TRUE(h1.result().ok());
    EXPECT_TRUE(h2.result().ok());
    EXPECT_TRUE(h3.result().ok());
    svc.stop();

    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.completed"), 3u);
    EXPECT_GE(m.counterValue("admission.blocked"), 1u);
}

/**
 * A queued job cancelled while a profiling leader holds the worker
 * must terminate as Cancelled without poisoning the leader: the
 * leader still completes, records its selection, and a later job
 * warm-starts from it.
 */
TEST(Backpressure, CancelledQueuedFollowerDoesNotPoisonLeader)
{
    // 512 units >= minUnitsForProfiling: the leader cold-misses and
    // profiles (under a coalescer lease) while parked on the gate.
    constexpr std::uint64_t kUnits = 512;
    Gate gate;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.coalesce = true;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([&gate](runtime::Runtime &rt) {
           rt.addKernel("gate", gatedKernel("slow", gate, 7, 4000));
           rt.addKernel("gate", gatedKernel("fast", gate, 7, 100));
           rt.setKernelInfo("gate", regularInfo("gate"));
       }).throwIfError();
    svc.start();

    kdp::Buffer<std::int32_t> outL(kUnits, kdp::MemSpace::Global, "bp.l");
    kdp::Buffer<std::int32_t> outF(kUnits, kdp::MemSpace::Global, "bp.f");
    kdp::Buffer<std::int32_t> outW(kUnits, kdp::MemSpace::Global, "bp.w");

    JobHandle leader = submitOne(svc, gateJob(outL, kUnits));
    gate.awaitEntered(); // leader is parked mid-profile
    JobHandle follower = submitOne(svc, gateJob(outF, kUnits));
    ASSERT_TRUE(follower.cancel());
    const JobResult &rf = follower.result();
    EXPECT_EQ(rf.status.code(), support::StatusCode::Cancelled);

    gate.open();
    const JobResult &rl = leader.result();
    EXPECT_TRUE(rl.ok()) << rl.status.toString();
    EXPECT_FALSE(rl.warmStart);
    svc.drain();

    // The leader's record survived the cancelled follower: the next
    // job is served warm from the store.
    JobHandle warm = submitOne(svc, gateJob(outW, kUnits));
    const JobResult &rw = warm.result();
    EXPECT_TRUE(rw.ok()) << rw.status.toString();
    EXPECT_TRUE(rw.warmStart);
    svc.stop();

    EXPECT_EQ(store.records().size(), 1u);
    EXPECT_TRUE(store.records()[0].valid);
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.cancelled"), 1u);
    EXPECT_EQ(m.counterValue("coalesce.leader"), 1u);
    EXPECT_EQ(m.counterValue("coalesce.leader_failed"), 0u);
    EXPECT_GE(m.counterValue("store.hit"), 1u);
}
