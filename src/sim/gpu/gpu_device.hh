/**
 * @file
 * Simulated GPU device (Kepler-class).
 *
 * Models the paper's K20c and its CUDA runtime (§3.3): multiple
 * streams whose launches may overlap, per-SM resource-based block
 * placement (threads / blocks / scratchpad / registers -> occupancy),
 * a kernel launch overhead large enough to matter for micro-kernels
 * (§5.2), and a host-side stream query latency that limits how many
 * eager dispatches asynchronous DySel can squeeze in (§5.1).
 *
 * A resident work-group's duration is its throughput cycles stretched
 * by the number of co-resident blocks on its SM plus its memory
 * latency divided by the same count (latency hiding): SM-level
 * throughput is conserved while occupancy hides latency.
 */
#pragma once

#include <string>
#include <vector>

#include "kdp/trace.hh"

#include "sim/cache/cache.hh"
#include "sim/device.hh"

#include "gpu_cost_model.hh"

namespace dysel {
namespace sim {

/** Construction parameters of the GPU device. */
struct GpuConfig
{
    std::string name = "sim-k20c";
    unsigned sms = 13;
    double ghz = 0.705;
    std::uint64_t threadsPerSm = 2048;
    unsigned blocksPerSm = 16;
    std::uint64_t scratchPerSm = 48 * 1024;
    std::uint64_t regsPerSm = 65536;
    CacheConfig l2{1536 * 1024, 12, 128};
    CacheConfig tex{12 * 1024, 24, 32};
    GpuCostParams cost;
    /** Host-side kernel launch overhead; fully exposed for
     *  micro-kernels (§5.2). */
    TimeNs launchOverheadNs = 8000;
    /** cudaStreamQuery latency; often longer than the whole
     *  micro-profiling phase, which is why asynchronous DySel gets
     *  few or zero eager dispatches on the GPU (§5.1). */
    TimeNs hostQueryLatencyNs = 25000;
    double noiseSigma = 0.0;
    TimeNs noiseRefNs = 2000;
    std::uint64_t seed = 0x6eed;
};

/**
 * The GPU device simulator.
 */
class GpuDevice : public Device, private EventSink
{
  public:
    explicit GpuDevice(const GpuConfig &cfg = GpuConfig());

    const std::string &name() const override { return config.name; }
    std::string fingerprint() const override;
    DeviceKind kind() const override { return DeviceKind::Gpu; }
    unsigned computeUnits() const override { return config.sms; }
    TimeNs launchOverheadNs() const override
    {
        return config.launchOverheadNs;
    }
    TimeNs hostQueryLatencyNs() const override
    {
        return config.hostQueryLatencyNs;
    }

    /** Work-groups executed since construction. */
    std::uint64_t groupsExecuted() const { return nGroups; }

    /** Occupancy (resident blocks per SM) of @p variant. */
    unsigned occupancy(const kdp::KernelVariant &variant) const;

    /** The device configuration. */
    const GpuConfig &cfg() const { return config; }

  private:
    struct Sm
    {
        GpuSmState state;
        std::uint64_t threadsUsed = 0;
        std::uint64_t scratchUsed = 0;
        std::uint64_t regsUsed = 0;
        unsigned blocks = 0;

        explicit Sm(const CacheConfig &tex_cfg) : state(tex_cfg) {}
    };

    /** Resource footprint of one block of @p variant. */
    struct Footprint
    {
        std::uint64_t threads;
        std::uint64_t scratch;
        std::uint64_t regs;
    };

    /** A resident block: one SM slot, named by its GroupDone event. */
    struct Block
    {
        std::uint32_t launch = DispatchQueue::none;
        unsigned sm = 0;
        TimeNs dur = 0;
        Footprint fp{};
    };

    Footprint footprintOf(const kdp::KernelVariant &variant) const;
    bool fits(const Sm &sm, const Footprint &fp) const;

    /** LaunchArrive (unit = launch slot) and GroupDone (unit = block). */
    void fire(EventKind kind, std::uint32_t unit) override;

    /** Place pending work-groups onto SMs until nothing fits. */
    void kick();

    /** Run one work-group of launch @p slot on SM @p idx. */
    void place(unsigned idx, std::uint32_t slot);

    GpuConfig config;
    /** Print every placed block to stderr (DYSEL_GPU_DEBUG set). */
    const bool debugPlacement;
    std::vector<Sm> sms;
    /** Resident-block slots, recycled through freeBlocks. */
    std::vector<Block> blocks;
    std::vector<std::uint32_t> freeBlocks;
    Cache l2;
    std::uint64_t residentBlocks = 0;
    std::uint32_t exclusiveOwner = DispatchQueue::none;
    kdp::WorkGroupTrace traceBuf;
    std::uint64_t nGroups = 0;
};

} // namespace sim
} // namespace dysel
