/**
 * @file
 * Unit tests for the programming-model layer: buffers, argument
 * lists, traces, and the execution context.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "kdp/args.hh"
#include "kdp/buffer.hh"
#include "kdp/context.hh"
#include "kdp/kernel.hh"
#include "kdp/trace.hh"

using namespace dysel::kdp;

TEST(Buffer, AllocationsGetDisjointAddressRanges)
{
    Buffer<float> a(100, MemSpace::Global, "a");
    Buffer<float> b(100, MemSpace::Global, "b");
    const auto a_end = a.baseAddr() + a.sizeBytes();
    const auto b_end = b.baseAddr() + b.sizeBytes();
    EXPECT_TRUE(a_end <= b.baseAddr() || b_end <= a.baseAddr());
}

TEST(Buffer, ElementAddressing)
{
    Buffer<double> b(10, MemSpace::Global, "d");
    EXPECT_EQ(b.elemSize(), 8u);
    EXPECT_EQ(b.addrOf(3), b.baseAddr() + 24);
    EXPECT_EQ(b.sizeBytes(), 80u);
}

TEST(Buffer, CloneCopiesDataToFreshRange)
{
    Buffer<int> b(4, MemSpace::Global, "src");
    b.at(2) = 42;
    auto clone = b.clone();
    EXPECT_NE(clone->baseAddr(), b.baseAddr());
    EXPECT_EQ(static_cast<Buffer<int> &>(*clone).at(2), 42);
    // Mutating the clone leaves the original untouched.
    static_cast<Buffer<int> &>(*clone).at(2) = 7;
    EXPECT_EQ(b.at(2), 42);
}

TEST(Buffer, CopyFromRestoresContents)
{
    Buffer<int> a(4, MemSpace::Global, "a");
    Buffer<int> b(4, MemSpace::Global, "b");
    a.at(1) = 5;
    b.copyFrom(a);
    EXPECT_EQ(b.at(1), 5);
}

TEST(Buffer, SpaceIsMutable)
{
    Buffer<float> b(4, MemSpace::Global, "x");
    EXPECT_EQ(b.space(), MemSpace::Global);
    b.setSpace(MemSpace::Texture);
    EXPECT_EQ(b.space(), MemSpace::Texture);
}

TEST(BufferDeath, HostAccessOutOfBounds)
{
    Buffer<int> b(4, MemSpace::Global, "x");
    EXPECT_DEATH(b.at(4), "");
}

TEST(KernelArgs, TypedAccess)
{
    Buffer<float> f(4, MemSpace::Global, "f");
    Buffer<int> i(4, MemSpace::Global, "i");
    KernelArgs args;
    args.add(f).add(i).add(7).add(2.5);
    EXPECT_EQ(args.size(), 4u);
    EXPECT_EQ(&args.buf<float>(0), &f);
    EXPECT_EQ(&args.buf<int>(1), &i);
    EXPECT_EQ(args.scalarInt(2), 7);
    EXPECT_DOUBLE_EQ(args.scalarDouble(3), 2.5);
}

TEST(KernelArgs, RebindSwapsBufferSlot)
{
    Buffer<float> f(4, MemSpace::Global, "f");
    Buffer<float> g(4, MemSpace::Global, "g");
    KernelArgs args;
    args.add(f);
    args.rebind(0, g);
    EXPECT_EQ(&args.buf<float>(0), &g);
}

TEST(KernelArgsDeath, WrongTypePanics)
{
    Buffer<float> f(4, MemSpace::Global, "f");
    KernelArgs args;
    args.add(f);
    EXPECT_DEATH(args.buf<int>(0), "");
}

TEST(KernelArgsDeath, ScalarIsNotBuffer)
{
    KernelArgs args;
    args.add(3);
    EXPECT_DEATH(args.bufBase(0), "");
}

TEST(Trace, ResetClearsEverything)
{
    WorkGroupTrace t;
    t.reset(4);
    t.accesses.push_back(MemAccess{0, 0, 0, 4, MemSpace::Global, false,
                                   false});
    t.laneFlops[1] = 5;
    t.laneAccessRows[0] = 1;
    t.laneBranchRows[2] = 3;
    t.barriers = 2;
    t.reset(8);
    EXPECT_TRUE(t.accesses.empty());
    EXPECT_EQ(t.laneFlops.size(), 8u);
    EXPECT_EQ(t.laneAccessRows, std::vector<std::uint32_t>(8, 0));
    EXPECT_EQ(t.laneBranchRows, std::vector<std::uint32_t>(8, 0));
    EXPECT_EQ(t.totalFlops(), 0u);
    EXPECT_EQ(t.barriers, 0u);
}

TEST(Trace, ResetClearsAWarmTraceAtNewAndSameSize)
{
    // Every size a lane array can take through the fixed-size clear:
    // below one block, whole blocks, and blocks plus a tail.
    const std::uint32_t sizes[] = {1, 3, 8, 13, 16, 33, 64, 257};
    WorkGroupTrace t;
    t.reset(5);
    auto dirty = [&t] {
        t.accesses.push_back(MemAccess{0, 0, 0, 4, MemSpace::Global, false,
                                       false});
        t.branches.push_back({0, 0, true});
        std::fill(t.laneFlops.begin(), t.laneFlops.end(), 7);
        std::fill(t.laneAccessRows.begin(), t.laneAccessRows.end(), 3);
        std::fill(t.laneBranchRows.begin(), t.laneBranchRows.end(), 2);
        t.barriers = 4;
        t.scratchBytes = 64;
    };
    auto expectCleared = [&t](std::uint32_t n) {
        EXPECT_TRUE(t.accesses.empty()) << n;
        EXPECT_TRUE(t.branches.empty()) << n;
        EXPECT_EQ(t.laneFlops, std::vector<std::uint64_t>(n, 0)) << n;
        EXPECT_EQ(t.laneAccessRows, std::vector<std::uint32_t>(n, 0)) << n;
        EXPECT_EQ(t.laneBranchRows, std::vector<std::uint32_t>(n, 0)) << n;
        EXPECT_EQ(t.barriers, 0u) << n;
        EXPECT_EQ(t.scratchBytes, 0u) << n;
    };
    for (std::uint32_t n : sizes) {
        dirty();
        t.reset(n); // a new size re-sizes the lane arrays
        expectCleared(n);
        dirty();
        t.reset(n); // the same size clears them in place
        expectCleared(n);
    }
}

TEST(GroupCtx, RecordsAccessesInExecutionOrder)
{
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(4);
    GroupCtx g(3, 4, 2, &t);
    EXPECT_EQ(g.group(), 3u);
    EXPECT_EQ(g.unitBase(), 6u);
    EXPECT_EQ(g.globalId(1), 13u);

    g.load(buf, 5, 0);
    g.store(buf, 6, 1.0f, 1);
    ASSERT_EQ(t.accesses.size(), 2u);
    EXPECT_EQ(t.accesses[0].addr, buf.addrOf(5));
    EXPECT_FALSE(t.accesses[0].write);
    EXPECT_EQ(t.accesses[1].addr, buf.addrOf(6));
    EXPECT_TRUE(t.accesses[1].write);
    EXPECT_EQ(buf.at(6), 1.0f);
}

TEST(GroupCtx, PerLaneSequenceNumbers)
{
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    g.load(buf, 0, 0); // lane 0, seq 0
    g.load(buf, 1, 0); // lane 0, seq 1
    g.load(buf, 2, 1); // lane 1, seq 0
    EXPECT_EQ(t.accesses[0].seq, 0u);
    EXPECT_EQ(t.accesses[1].seq, 1u);
    EXPECT_EQ(t.accesses[2].seq, 0u);
    EXPECT_EQ(t.accesses[2].lane, 1u);
}

TEST(Trace, MemAccessFieldsHoldTheirLimits)
{
    MemAccess a{~std::uint64_t{0}, maxGroupSize - 1, 0xffffffffu,
                maxAccessBytes, MemSpace::Constant, true, true};
    EXPECT_EQ(a.addr, ~std::uint64_t{0});
    EXPECT_EQ(a.lane, maxGroupSize - 1);
    EXPECT_EQ(a.seq, 0xffffffffu);
    EXPECT_EQ(a.bytes, maxAccessBytes);
    EXPECT_EQ(a.space, MemSpace::Constant);
    EXPECT_TRUE(a.write);
    EXPECT_TRUE(a.atomic);
}

TEST(GroupCtx, RecordsLaneRows)
{
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(3);
    GroupCtx g(0, 3, 1, &t);
    g.load(buf, 0, 0);
    g.load(buf, 1, 0);
    g.store(buf, 2, 1.0f, 2);
    g.branch(1, true);
    g.branch(1, false);
    g.branch(1, true);
    EXPECT_EQ(t.laneAccessRows, (std::vector<std::uint32_t>{2, 0, 1}));
    EXPECT_EQ(t.laneBranchRows, (std::vector<std::uint32_t>{0, 3, 0}));
}

TEST(GroupCtx, LaneRowsAreTheMaxAcrossRestarts)
{
    // A fused launch records several members into one trace; each
    // member's restart() sets the per-lane counters back to 0, so a
    // lane's rows are the largest count any member reached.
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    const std::uint32_t loads[3][2] = {{3, 1}, {1, 4}, {2, 0}};
    const std::uint32_t branches[3][2] = {{0, 2}, {5, 1}, {1, 3}};
    for (std::uint64_t m = 0; m < 3; ++m) {
        if (m != 0)
            g.restart(m);
        for (std::uint32_t lane = 0; lane < 2; ++lane) {
            for (std::uint32_t k = 0; k < loads[m][lane]; ++k)
                g.load(buf, k, lane);
            for (std::uint32_t k = 0; k < branches[m][lane]; ++k)
                g.branch(lane, k % 2 == 0);
        }
    }
    for (std::uint32_t lane = 0; lane < 2; ++lane) {
        std::uint32_t access_rows = 0;
        std::uint32_t branch_rows = 0;
        for (const MemAccess &a : t.accesses)
            if (a.lane == lane)
                access_rows = std::max<std::uint32_t>(access_rows,
                                                      a.seq + 1);
        for (const BranchEvent &b : t.branches)
            if (b.lane == lane)
                branch_rows = std::max(branch_rows, b.seq + 1);
        EXPECT_EQ(t.laneAccessRows[lane], access_rows) << lane;
        EXPECT_EQ(t.laneBranchRows[lane], branch_rows) << lane;
    }
    EXPECT_EQ(t.laneAccessRows, (std::vector<std::uint32_t>{3, 4}));
    EXPECT_EQ(t.laneBranchRows, (std::vector<std::uint32_t>{5, 3}));
}

TEST(GroupCtx, LargestGroupAndWidthAreRecordedExactly)
{
    Buffer<std::uint8_t> buf(maxAccessBytes + 1, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(maxGroupSize);
    GroupCtx g(0, maxGroupSize, 1, &t);
    std::vector<std::uint8_t> out(maxAccessBytes);
    g.loadSpan(buf, 1, maxAccessBytes, maxGroupSize - 1, out.data());
    ASSERT_EQ(t.accesses.size(), 1u);
    EXPECT_EQ(t.accesses[0].lane, maxGroupSize - 1);
    EXPECT_EQ(t.accesses[0].bytes, maxAccessBytes);
    EXPECT_EQ(t.accesses[0].addr, buf.addrOf(1));
    EXPECT_EQ(t.laneAccessRows[maxGroupSize - 1], 1u);
}

TEST(GroupCtx, AtomicAddReturnsOldAndFlags)
{
    Buffer<int> buf(4, MemSpace::Global, "b");
    buf.at(0) = 10;
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    EXPECT_EQ(g.atomicAdd(buf, 0, 5, 0), 10);
    EXPECT_EQ(buf.at(0), 15);
    EXPECT_TRUE(t.accesses[0].atomic);
    EXPECT_TRUE(t.accesses[0].write);
}

TEST(GroupCtx, LoadSpanIsOneRecord)
{
    Buffer<float> buf(8, MemSpace::Global, "b");
    for (int i = 0; i < 8; ++i)
        buf.at(i) = static_cast<float>(i);
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    float out[4];
    g.loadSpan(buf, 2, 4, 0, out);
    ASSERT_EQ(t.accesses.size(), 1u);
    EXPECT_EQ(t.accesses[0].bytes, 16u);
    EXPECT_EQ(out[0], 2.0f);
    EXPECT_EQ(out[3], 5.0f);
}

TEST(GroupCtx, FlopsAndBranches)
{
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    g.flops(0, 10);
    g.flops(1, 5);
    g.branch(0, true);
    g.branch(1, false);
    EXPECT_EQ(t.totalFlops(), 15u);
    ASSERT_EQ(t.branches.size(), 2u);
    EXPECT_TRUE(t.branches[0].taken);
    EXPECT_FALSE(t.branches[1].taken);
}

TEST(GroupCtx, ScratchpadAllocationAndAccess)
{
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    auto local = g.allocLocal<float>(8);
    EXPECT_EQ(g.scratchBytes(), 32u);
    EXPECT_EQ(t.scratchBytes, 32u);
    local.set(g, 3, 9.0f, 0);
    EXPECT_EQ(local.get(g, 3, 1), 9.0f);
    EXPECT_EQ(t.countSpace(MemSpace::Scratchpad), 2u);
    g.barrier();
    EXPECT_EQ(t.barriers, 1u);
}

TEST(GroupCtx, RestartSetsLaneSeqsBackToZero)
{
    Buffer<float> buf(16, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(4, 2, 3, &t);
    g.load(buf, 0, 0);
    g.load(buf, 1, 0);
    g.branch(1, true);
    g.allocLocal<float>(4);
    g.restart(9);
    EXPECT_EQ(g.group(), 9u);
    EXPECT_EQ(g.unitBase(), 27u);
    EXPECT_EQ(g.scratchBytes(), 0u);
    g.load(buf, 2, 0);
    g.load(buf, 3, 1);
    g.branch(1, false);
    ASSERT_EQ(t.accesses.size(), 4u);
    EXPECT_EQ(t.accesses[2].seq, 0u); // lane 0 restarts
    EXPECT_EQ(t.accesses[3].seq, 0u);
    ASSERT_EQ(t.branches.size(), 2u);
    EXPECT_EQ(t.branches[1].seq, 0u);
    // Rows keep the largest count any context reached.
    EXPECT_EQ(t.laneAccessRows, (std::vector<std::uint32_t>{2, 1}));
    EXPECT_EQ(t.laneBranchRows, (std::vector<std::uint32_t>{0, 1}));
}

TEST(GroupCtx, LocalScratchReadsZeroOnEachNewGroup)
{
    // One trace reused across groups, as the devices do: every group
    // (and every restarted member within one) sees zero-filled
    // scratch, whatever the previous one left behind.
    WorkGroupTrace t;
    for (std::uint64_t group = 0; group < 3; ++group) {
        t.reset(2);
        GroupCtx member(group, 2, 1, &t);
        for (std::uint64_t m = 0; m < 2; ++m) {
            member.restart(group * 2 + m);
            auto small = member.allocLocal<std::int32_t>(4);
            auto big = member.allocLocal<double>(8 + group);
            EXPECT_EQ(member.scratchBytes(),
                      4 * sizeof(std::int32_t)
                          + (8 + group) * sizeof(double));
            EXPECT_EQ(t.scratchBytes, member.scratchBytes());
            for (std::uint64_t i = 0; i < small.size(); ++i) {
                EXPECT_EQ(small.get(member, i, 0), 0) << group << m << i;
                small.set(member, i, -1, 1);
            }
            for (std::uint64_t i = 0; i < big.size(); ++i) {
                EXPECT_EQ(big.get(member, i, 1), 0.0) << group << m << i;
                big.set(member, i, 3.5, 0);
            }
        }
    }
}

namespace {

/** A MemAccess's two words. */
struct AccessWords
{
    std::uint64_t addr;
    std::uint64_t packed;

    bool operator==(const AccessWords &) const = default;
};

/** Everything a member body records, in one comparable form. */
struct Recording
{
    std::vector<AccessWords> accesses;
    std::vector<std::uint64_t> branches;
    std::vector<std::uint64_t> laneFlops;
    std::vector<std::uint32_t> laneAccessRows;
    std::vector<std::uint32_t> laneBranchRows;
    std::uint64_t nonzeroScratchReads = 0;

    bool operator==(const Recording &) const = default;
};

Recording
recordingOf(const WorkGroupTrace &t, std::uint64_t nonzero_scratch_reads)
{
    Recording r;
    for (const MemAccess &a : t.accesses)
        r.accesses.push_back(std::bit_cast<AccessWords>(a));
    for (const BranchEvent &b : t.branches)
        r.branches.push_back(std::uint64_t{b.lane} << 33
                             | std::uint64_t{b.seq} << 1 | b.taken);
    r.laneFlops = t.laneFlops;
    r.laneAccessRows = t.laneAccessRows;
    r.laneBranchRows = t.laneBranchRows;
    r.nonzeroScratchReads = nonzero_scratch_reads;
    return r;
}

/**
 * Member @p m's body: every lane loads at its global id and branches a
 * lane- and member-dependent number of times, and a Local array the
 * group's size is read (it must be zero) and then dirtied.
 */
void
memberBody(GroupCtx &g, std::uint64_t m, Buffer<float> &buf,
           std::uint64_t &nonzero_scratch_reads)
{
    auto tile = g.allocLocal<std::uint32_t>(g.groupSize());
    for (std::uint32_t lane = 0; lane < g.groupSize(); ++lane) {
        const std::uint32_t reps = 1 + (lane + m) % 4;
        for (std::uint32_t k = 0; k < reps; ++k) {
            g.load(buf, (g.globalId(lane) + k) % buf.size(), lane);
            g.branch(lane, (k + m) % 2 == 0);
        }
        g.flops(lane, lane + m);
        if (tile.get(g, lane, lane) != 0)
            ++nonzero_scratch_reads;
        tile.set(g, lane, lane + 1, lane);
    }
}

} // namespace

TEST(GroupCtx, RestartMatchesFreshContexts)
{
    // Sizes below one 32-byte block of lane slots, whole blocks, and
    // blocks plus every kind of tail.
    const std::uint32_t sizes[] = {1, 3, 8, 13, 16, 33, 64, 257};
    Buffer<float> buf(8192, MemSpace::Global, "b");
    WorkGroupTrace reused;
    for (std::uint32_t n : sizes) {
        // Run the members twice over the reused trace, so the second
        // pass restarts a context on a warm, dirty trace.
        std::uint64_t reused_nonzero = 0;
        for (int pass = 0; pass < 2; ++pass) {
            reused.reset(n);
            reused_nonzero = 0;
            GroupCtx g(5, n, 2, &reused);
            for (std::uint64_t m = 0; m < 3; ++m) {
                g.restart(10 + m);
                memberBody(g, m, buf, reused_nonzero);
            }
        }

        WorkGroupTrace fresh_trace;
        fresh_trace.reset(n);
        std::uint64_t fresh_nonzero = 0;
        for (std::uint64_t m = 0; m < 3; ++m) {
            GroupCtx fresh(10 + m, n, 2, &fresh_trace);
            memberBody(fresh, m, buf, fresh_nonzero);
        }

        EXPECT_EQ(fresh_nonzero, 0u) << n;
        EXPECT_TRUE(recordingOf(reused, reused_nonzero)
                    == recordingOf(fresh_trace, fresh_nonzero))
            << "group size " << n;
    }
}

TEST(GroupCtxDeath, LaneOutOfRange)
{
    Buffer<float> buf(4, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(2);
    GroupCtx g(0, 2, 1, &t);
    EXPECT_DEATH(g.load(buf, 0, 2), "");
}

TEST(GroupCtxDeath, GroupTooLargeForLaneField)
{
    WorkGroupTrace t;
    EXPECT_DEATH(GroupCtx(0, maxGroupSize + 1, 1, &t), "lane field");
}

TEST(GroupCtxDeath, LoadSpanTooWideForByteField)
{
    Buffer<float> buf(2048, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    std::vector<float> out(1024);
    // 1024 floats are 4096 bytes, one past the width field.
    EXPECT_DEATH(g.loadSpan(buf, 0, 1024, 0, out.data()), "width field");
}

TEST(GroupCtxDeath, ScratchOutOfBounds)
{
    WorkGroupTrace t;
    t.reset(1);
    GroupCtx g(0, 1, 1, &t);
    auto local = g.allocLocal<int>(4);
    EXPECT_DEATH(local.get(g, 4, 0), "");
}

TEST(ItemCtx, ForwardsWithItsLane)
{
    Buffer<float> buf(8, MemSpace::Global, "b");
    WorkGroupTrace t;
    t.reset(4);
    GroupCtx g(2, 4, 1, &t);
    int visited = 0;
    forEachItem(g, [&](ItemCtx &item) {
        item.store(buf, item.localId(), static_cast<float>(visited));
        EXPECT_EQ(item.globalId(), 8u + item.localId());
        ++visited;
    });
    EXPECT_EQ(visited, 4);
    EXPECT_EQ(t.accesses.size(), 4u);
    EXPECT_EQ(t.accesses[3].lane, 3u);
}

TEST(KernelVariant, GroupsForRoundsUp)
{
    KernelVariant v;
    v.waFactor = 16;
    EXPECT_EQ(v.groupsFor(16), 1u);
    EXPECT_EQ(v.groupsFor(17), 2u);
    EXPECT_EQ(v.groupsFor(160), 10u);
}

TEST(MemSpaceNames, AllDistinct)
{
    EXPECT_STREQ(memSpaceName(MemSpace::Global), "global");
    EXPECT_STREQ(memSpaceName(MemSpace::Texture), "texture");
    EXPECT_STREQ(memSpaceName(MemSpace::Scratchpad), "scratchpad");
    EXPECT_STREQ(memSpaceName(MemSpace::Constant), "constant");
}
