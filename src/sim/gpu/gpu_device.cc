#include "gpu_device.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "kdp/context.hh"
#include "support/logging.hh"

namespace dysel {
namespace sim {

GpuDevice::GpuDevice(const GpuConfig &cfg)
    : Device(cfg.noiseSigma, cfg.noiseRefNs, cfg.seed), config(cfg),
      debugPlacement(std::getenv("DYSEL_GPU_DEBUG") != nullptr), l2(cfg.l2)
{
    if (cfg.sms == 0)
        throw std::invalid_argument("GpuDevice needs at least one SM");
    sms.reserve(cfg.sms);
    for (unsigned i = 0; i < cfg.sms; ++i)
        sms.emplace_back(cfg.tex);
    events.attach(*this);
}

std::string
GpuDevice::fingerprint() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "gpu/%s/sm%u@%.3fGHz/t%llu/b%u/l2=%llu/tex=%llu",
                  config.name.c_str(), config.sms, config.ghz,
                  (unsigned long long)config.threadsPerSm,
                  config.blocksPerSm,
                  (unsigned long long)config.l2.sizeBytes,
                  (unsigned long long)config.tex.sizeBytes);
    return buf;
}

GpuDevice::Footprint
GpuDevice::footprintOf(const kdp::KernelVariant &variant) const
{
    return Footprint{
        variant.groupSize,
        std::max<std::uint64_t>(variant.traits.scratchBytes, 1),
        static_cast<std::uint64_t>(variant.traits.regsPerThread)
            * variant.groupSize,
    };
}

bool
GpuDevice::fits(const Sm &sm, const Footprint &fp) const
{
    return sm.blocks < config.blocksPerSm
           && sm.threadsUsed + fp.threads <= config.threadsPerSm
           && sm.scratchUsed + fp.scratch <= config.scratchPerSm
           && sm.regsUsed + fp.regs <= config.regsPerSm;
}

unsigned
GpuDevice::occupancy(const kdp::KernelVariant &variant) const
{
    const Footprint fp = footprintOf(variant);
    Sm probe(config.tex);
    unsigned blocks = 0;
    while (fits(probe, fp)) {
        probe.blocks++;
        probe.threadsUsed += fp.threads;
        probe.scratchUsed += fp.scratch;
        probe.regsUsed += fp.regs;
        ++blocks;
    }
    return blocks;
}

void
GpuDevice::fire(EventKind kind, std::uint32_t unit)
{
    if (kind == EventKind::LaunchArrive) {
        queue.add(unit);
        kick();
        return;
    }
    // GroupDone: free the block's SM slot, then account the group.
    const Block blk = blocks[unit];
    freeBlocks.push_back(unit);
    Sm &host_sm = sms[blk.sm];
    host_sm.blocks--;
    host_sm.threadsUsed -= blk.fp.threads;
    host_sm.scratchUsed -= blk.fp.scratch;
    host_sm.regsUsed -= blk.fp.regs;
    --residentBlocks;

    queue[blk.launch].groupDone(blk.dur, now());
    kick();
}

void
GpuDevice::kick()
{
    // Strict priority: the highest-priority dispatchable launch gets
    // first pick of SM space; we stop as soon as it cannot be placed.
    // An exclusive launch waits for an empty device, then owns it
    // until it fully drains.
    while (true) {
        std::uint32_t slot;
        if (exclusiveOwner != DispatchQueue::none
            && !queue[exclusiveOwner].finished()) {
            if (queue[exclusiveOwner].allIssued())
                return; // draining; nothing else may start
            slot = exclusiveOwner;
        } else {
            exclusiveOwner = DispatchQueue::none;
            slot = queue.pick();
            if (slot == DispatchQueue::none)
                return;
            if (queue[slot].launch.exclusive) {
                if (residentBlocks > 0)
                    return; // wait for the device to empty
                exclusiveOwner = slot;
            }
        }
        const Footprint fp = footprintOf(*queue[slot].launch.variant);
        // Least-loaded SM that fits.
        int best = -1;
        for (unsigned i = 0; i < sms.size(); ++i) {
            if (!fits(sms[i], fp))
                continue;
            if (best < 0 || sms[i].blocks < sms[best].blocks)
                best = static_cast<int>(i);
        }
        if (best < 0)
            return;
        place(static_cast<unsigned>(best), slot);
    }
}

void
GpuDevice::place(unsigned idx, std::uint32_t slot)
{
    Sm &sm = sms[idx];
    ActiveLaunch &al = queue[slot];
    const kdp::KernelVariant &variant = *al.launch.variant;
    const Footprint fp = footprintOf(variant);

    sm.blocks++;
    sm.threadsUsed += fp.threads;
    sm.scratchUsed += fp.scratch;
    sm.regsUsed += fp.regs;
    ++residentBlocks;

    const std::uint64_t grid = al.issue(now());

    traceBuf.reset(variant.groupSize);
    kdp::GroupCtx ctx(grid, variant.groupSize, variant.waFactor, &traceBuf);
    variant.fn(ctx, al.launch.args);
    ++nGroups;

    const GpuWgCost cost = gpuWorkGroupCost(traceBuf, variant.traits,
                                            variant.groupSize, sm.state, l2,
                                            config.cost);
    // A resident block shares the SM's issue bandwidth with its
    // co-resident peers (throughput part stretches by the resident
    // count) while occupancy hides memory latency (latency part
    // shrinks by it).  A lone block on an otherwise idle SM really
    // does run faster -- which is what keeps micro-profiling spans of
    // high-work-assignment variants representative.
    const double resident = static_cast<double>(sm.blocks);
    const double cycles = cost.throughputCycles * resident
                          + cost.latencyCycles / resident;
    if (debugPlacement) {
        std::fprintf(stderr,
                     "[gpu] t=%llu %s grid=%llu r=%.0f T=%.0fcy L=%.0fcy "
                     "dur=%.0fus\n",
                     (unsigned long long)now(), variant.name.c_str(),
                     (unsigned long long)grid, resident,
                     cost.throughputCycles, cost.latencyCycles,
                     cycles / config.ghz / 1000.0);
    }
    TimeNs dur = cyclesToNs(cycles, config.ghz);
    if (al.timeScale != 1.0)
        dur = static_cast<TimeNs>(static_cast<double>(dur) * al.timeScale);
    dur = addNoise(dur);

    std::uint32_t b;
    if (freeBlocks.empty()) {
        b = static_cast<std::uint32_t>(blocks.size());
        blocks.emplace_back();
    } else {
        b = freeBlocks.back();
        freeBlocks.pop_back();
    }
    blocks[b] = Block{slot, idx, dur, fp};
    events.postAfter(dur, EventKind::GroupDone, b);
}

} // namespace sim
} // namespace dysel
