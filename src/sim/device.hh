/**
 * @file
 * Abstract device interface shared by the CPU and GPU simulators,
 * with the parts they share: launch submission (fault checks, the
 * dispatch queue) and duration noise.
 *
 * A device executes kernel work-groups for real (producing real
 * outputs) while charging virtual time from its timing model.  It is
 * driven by a single deterministic event engine; the DySel
 * orchestrator schedules its own "host" actions on the same engine so
 * host/device interleavings (stream polling, eager dispatch) are
 * simulated faithfully.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hh"

#include "event_engine.hh"
#include "fault.hh"
#include "launch.hh"
#include "sched.hh"
#include "time.hh"

namespace dysel {
namespace sim {

/** Broad device class; selects the profiling timer implementation. */
enum class DeviceKind {
    Cpu, ///< host-timer path (§3.2)
    Gpu, ///< in-kernel clock path (§3.3, Fig. 7)
};

/** Common interface of the simulated devices. */
class Device
{
  public:
    virtual ~Device() = default;

    /** Human-readable device name. */
    virtual const std::string &name() const = 0;

    /**
     * Stable identity string derived from the device configuration
     * (kind, name, compute units, clock, cache geometry).  Equal
     * fingerprints mean "selections made on one are valid on the
     * other"; the persistent selection store keys its records by this.
     */
    virtual std::string fingerprint() const = 0;

    /** Broad device class. */
    virtual DeviceKind kind() const = 0;

    /**
     * Number of independent compute units (CPU cores / GPU SMs); the
     * safe-point scaling in §3.4 rounds profiling work-group counts
     * to a multiple of this.
     */
    virtual unsigned computeUnits() const = 0;

    /**
     * Enqueue a launch.  Completion arrives via launch.onComplete.
     * The fault injector may drop it (a Nop event then charges the
     * overhead plus any stall) or stretch its work-groups; otherwise
     * it reaches the dispatch queue launchOverheadNs() from now as a
     * LaunchArrive event for the subclass's EventSink.
     */
    void submit(Launch launch);

    /** Fixed virtual cost of one kernel launch from the host. */
    virtual TimeNs launchOverheadNs() const = 0;

    /**
     * Virtual latency of one host-side status query of a stream
     * (cudaStreamQuery for the GPU; effectively zero on the CPU where
     * the runtime shares the host).
     */
    virtual TimeNs hostQueryLatencyNs() const = 0;

    /** The engine driving this device. */
    EventEngine &engine() { return events; }

    /** Current virtual time. */
    TimeNs now() const { return events.now(); }

    /** Run the event loop until everything submitted has completed. */
    void run() { events.run(); }

    /**
     * Attach a fault injector consulted on every submit(); nullptr
     * (the default) disables injection.  The injector must outlive
     * the device.
     */
    void setFaultInjector(FaultInjector *injector) { faults = injector; }

    /** The attached fault injector, if any. */
    FaultInjector *faultInjector() const { return faults; }

    /**
     * A launch-aborting fault (LaunchFail or Hang) fired since the
     * last takeFault().  The runtime checks this after run(): an
     * aborted launch never completes, so the orchestrator would
     * otherwise mistake the drained event queue for a lost wakeup.
     */
    bool faulted() const { return pendingFault.has_value(); }

    /** Consume and return the pending launch-aborting fault. */
    std::optional<FaultEvent> takeFault()
    {
        auto fault = std::move(pendingFault);
        pendingFault.reset();
        return fault;
    }

  protected:
    /**
     * @p noise_sigma, @p noise_ref_ns and @p noise_seed configure
     * addNoise() (see CpuConfig::noiseSigma).
     */
    Device(double noise_sigma, TimeNs noise_ref_ns,
           std::uint64_t noise_seed)
        : noiseSigma(noise_sigma), noiseRefNs(noise_ref_ns),
          rng(noise_seed)
    {}

    /**
     * Apply the configured measurement noise to a work-group duration:
     * relative, scaled up for durations below the reference (system
     * noise hits tiny tasks hardest, §5.2), deterministic through the
     * device's own RNG.  Identity when the sigma is 0.
     */
    TimeNs addNoise(TimeNs d);

    /**
     * Consult the injector for @p launch (submit() calls this).  At
     * most one launch-aborting fault is raised per run: once a
     * pending fault exists the attempt is doomed, so further draws
     * would only skew the event-log/metrics reconciliation.  Returns
     * the fault to apply.
     */
    FaultKind checkLaunchFault(const Launch &launch)
    {
        if (!faults || pendingFault)
            return FaultKind::None;
        const FaultKind kind = faults->decide(
            name(), launch.variant ? launch.variant->name : "?", now());
        if (kind == FaultKind::LaunchFail || kind == FaultKind::Hang) {
            FaultEvent ev;
            ev.kind = kind;
            ev.device = name();
            ev.variant = launch.variant ? launch.variant->name : "?";
            ev.time = now();
            pendingFault = std::move(ev);
        }
        return kind;
    }

    /**
     * Consult the injector for a persistent variant-level fault of
     * @p launch's variant (submit() calls this after
     * checkLaunchFault()).
     *
     * KernelHang is returned to the caller, which must drop the
     * launch and charge the watchdog stall itself; unlike a device
     * Hang it does NOT raise pendingFault -- the slice is contained,
     * the launch attempt as a whole is not doomed.  The output-
     * corrupting kinds are armed here: the launch's onComplete is
     * wrapped so the corruption lands after the kernel really ran,
     * overwriting computed results the way a buggy store would.
     * Every *applied* fault is logged (an OobWrite against a buffer
     * without a redzone has nowhere to land, so it neither applies
     * nor logs); that keeps the injector log reconcilable 1:1 with
     * the guard's detections.
     */
    VariantFaultKind checkVariantFault(Launch &launch)
    {
        if (!faults || !launch.variant)
            return VariantFaultKind::None;
        const VariantFaultKind kind =
            faults->variantFaultOf(launch.variant->name);
        if (kind == VariantFaultKind::None)
            return kind;
        if (kind == VariantFaultKind::KernelHang) {
            faults->logVariantFault(kind, name(), launch.variant->name,
                                    now());
            return kind;
        }
        // Output-corrupting kinds: find the output buffers this
        // fault can actually reach.
        std::vector<std::size_t> targets;
        for (std::size_t idx : launch.variant->sandboxIndex) {
            const kdp::BufferBase &buf = launch.args.bufBase(idx);
            if (buf.dataElems() == 0)
                continue;
            if (kind == VariantFaultKind::OobWrite && buf.redzone() == 0)
                continue;
            targets.push_back(idx);
        }
        if (targets.empty())
            return VariantFaultKind::None;
        faults->logVariantFault(kind, name(), launch.variant->name,
                                now());
        auto orig = std::move(launch.onComplete);
        kdp::KernelArgs args = launch.args; // shallow; buffers outlive
        launch.onComplete = [args, targets, kind,
                             orig](const LaunchStats &stats) {
            for (std::size_t idx : targets)
                applyOutputFault(kind, args.bufBase(idx));
            if (orig)
                orig(stats);
        };
        return kind;
    }

    /** Scribble @p kind's signature bytes into @p buf. */
    static void applyOutputFault(VariantFaultKind kind,
                                 kdp::BufferBase &buf)
    {
        auto *bytes = static_cast<unsigned char *>(buf.rawData());
        const std::uint64_t elem = buf.elemSize();
        if (kind == VariantFaultKind::OobWrite) {
            // Trash the redzone: an out-of-bounds store past the end
            // of the output allocation.
            std::memset(bytes + buf.dataElems() * elem, 0xdb,
                        buf.redzone() * elem);
            return;
        }
        // Garble a prefix of the data region.  0xff-filled floats are
        // NaN (the NaN screen's prey); 0xdb-filled ones are huge but
        // finite garbage (the cross-check's prey).
        const std::uint64_t n = std::min<std::uint64_t>(
            buf.dataElems(), 64);
        const unsigned char pattern =
            kind == VariantFaultKind::NanOutput ? 0xff : 0xdb;
        std::memset(bytes, pattern, n * elem);
    }

    EventEngine events;
    /** Submitted launches; the subclass dispatches their groups. */
    DispatchQueue queue;
    FaultInjector *faults = nullptr;
    std::optional<FaultEvent> pendingFault;

  private:
    double noiseSigma;
    TimeNs noiseRefNs;
    support::Rng rng;
};

} // namespace sim
} // namespace dysel
