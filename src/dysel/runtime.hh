/**
 * @file
 * The DySel runtime (paper §3): kernel pool, registration and launch
 * API, the three productive micro-profiling modes, and the
 * synchronous / asynchronous orchestrators.
 *
 * API mapping to the paper's Fig. 6:
 *   DySelAddKernel(sig, impl, wa_factor, sandbox_index)
 *     -> Runtime::addKernel(sig, KernelVariant{...})
 *   DySelLaunchKernel(sig, profiling, mode)
 *     -> Runtime::launchKernel(sig, units, args, LaunchOptions{...})
 *
 * A "workload unit" is the work of one base-version work-group; a
 * variant with work assignment factor f covers f units per group.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compiler/analysis.hh"
#include "compiler/kernel_info.hh"
#include "guard/guard.hh"
#include "kdp/args.hh"
#include "kdp/kernel.hh"
#include "sim/device.hh"
#include "support/status.hh"
#include "support/tracing/tracer.hh"

#include "options.hh"
#include "report.hh"

namespace dysel {
namespace runtime {

/** Runtime-wide configuration. */
struct RuntimeConfig
{
    /**
     * Profiling is deactivated for workloads smaller than this many
     * units (the paper targets kernels with >= 128 work-groups; for
     * small workloads the performance variation is not critical and
     * the profiling overhead is not amortizable).
     */
    std::uint64_t minUnitsForProfiling = 128;

    /** Cap on the fraction of the workload used for profiling. */
    double maxProfileFraction = 0.5;

    /**
     * The "constant" of §3.4's safe point scaling, applied on GPUs:
     * profile this many work-groups per SM (rather than one) so the
     * device saturates and per-SM caches warm up during the
     * measurement.
     */
    unsigned gpuSaturationBoost = 4;

    /** Emit inform() lines on selection decisions. */
    bool verbose = false;

    /**
     * Variant guard configuration.  When guard.enabled, profiling
     * launches validate every variant's sandbox output (cross-check,
     * canary redzones, NaN screen, watchdog); misbehaving variants
     * are excluded mid-selection and blacklisted after
     * guard.strikeLimit strikes.
     */
    guard::GuardConfig guard;
};

/**
 * One member of a fused (batched) launch: a slice of the fused grid
 * executed with the member job's own argument list, so each member
 * reads and writes its own buffers (per-job output slicing) while the
 * whole batch pays a single device submit.
 */
struct FusedSlice
{
    /**
     * The member's argument list.  Must outlive the launchFused()
     * call.  The member kernel bounds itself through its own scalar
     * arguments, exactly as in a solo launch.
     */
    const kdp::KernelArgs *args = nullptr;
    /** Member workload units. */
    std::uint64_t units = 0;
    /** Member job's tracer correlation id (for per-job batch spans). */
    std::uint64_t correlationId = 0;
};

/**
 * The DySel runtime for one device.
 */
class Runtime
{
  public:
    /** Bind to a device.  The device must outlive the runtime. */
    explicit Runtime(sim::Device &device,
                     const RuntimeConfig &cfg = RuntimeConfig());

    /**
     * Register a kernel variant (DySelAddKernel).  Variants of a
     * signature are ordered by registration; index 0 is the default.
     * Fails with InvalidArgument for a variant without an
     * implementation, with zero geometry, or with a duplicate name.
     */
    support::Status tryAddKernel(const std::string &signature,
                                 kdp::KernelVariant variant);

    /** Throwing wrapper of tryAddKernel (std::invalid_argument). */
    void addKernel(const std::string &signature,
                   kdp::KernelVariant variant);

    /** Whether any variant is registered under @p signature. */
    bool hasKernel(const std::string &signature) const;

    /**
     * Drop a signature's variants, metadata, and cached selection.
     * No-op when the signature was never registered.  Lets a serving
     * layer re-register a kernel pool whose variants were generated
     * for a different problem geometry.
     */
    void removeKernel(const std::string &signature);

    /**
     * Attach compiler metadata to a signature; enables the automatic
     * profiling-mode recommendation of §3.4.
     */
    void setKernelInfo(const std::string &signature,
                       compiler::KernelInfo info);

    /** Number of variants registered under @p signature. */
    std::size_t variantCount(const std::string &signature) const;

    /**
     * The registered variants of @p signature, or nullptr for an
     * unknown signature (the non-throwing lookup).
     */
    const std::vector<kdp::KernelVariant> *
    findVariants(const std::string &signature) const noexcept;

    /**
     * The compiler-produced KernelInfo registered with @p signature,
     * or nullptr when the signature is unknown or was registered
     * without one.  Feeds the selection predictor's feature
     * extraction on the serving path.
     */
    const compiler::KernelInfo *
    findKernelInfo(const std::string &signature) const noexcept;

    /**
     * Launch a kernel over @p total_units workload units
     * (DySelLaunchKernel), the fallible entry point.  Runs the
     * device's event loop to completion; on success fills @p report.
     *
     * Failure codes:
     *   NotFound            -- unknown signature
     *   InvalidArgument     -- zero units / initial variant range
     *   FailedPrecondition  -- empty pool, missing sandbox metadata
     *   Unavailable         -- injected launch failure (retryable)
     *   DeadlineExceeded    -- the device hung
     */
    support::Status launch(const std::string &signature,
                           std::uint64_t total_units,
                           const kdp::KernelArgs &args,
                           const LaunchOptions &opt, LaunchReport &report);

    /**
     * Fused (batched) launch: run every member of @p slices back to
     * back with one variant under a single device submit.  All
     * members share @p signature; each executes over its own argument
     * list, so outputs land in each member's own buffers with no
     * host-side copies.  @p variant selects the variant explicitly
     * (the serving layer passes a warm store winner); -1 applies the
     * default policy (cached selection, else opt.initialVariant,
     * else variant 0), falling back to the first non-blacklisted
     * variant.  Never profiles.  The report comes back with
     * fused == true and must not feed the drift baseline.
     *
     * Failure codes match launch(); a device fault fails the whole
     * batch (the serving layer then demotes members to solo runs).
     */
    support::Status launchFused(const std::string &signature, int variant,
                                std::span<const FusedSlice> slices,
                                const LaunchOptions &opt,
                                LaunchReport &report);

    /**
     * Throwing wrapper of launch(): returns the report on success,
     * throws std::out_of_range for an unknown signature and
     * std::runtime_error / std::invalid_argument otherwise.
     */
    LaunchReport launchKernel(const std::string &signature,
                              std::uint64_t total_units,
                              const kdp::KernelArgs &args,
                              const LaunchOptions &opt = LaunchOptions());

    /** Drop all cached selections. */
    void clearSelectionCache();

    /** Cached selection for @p signature, if any. */
    std::optional<int>
    cachedSelection(const std::string &signature) const;

    /**
     * Seed the selection cache from an external source (a persistent
     * selection store): subsequent non-profiled launches of
     * @p signature run @p variant directly.  Fails with NotFound for
     * an unknown signature and InvalidArgument for a variant index
     * outside the registered pool.
     */
    support::Status tryImportSelection(const std::string &signature,
                                       int variant);

    /** Snapshot of all cached selections (for export to a store). */
    std::map<std::string, int> exportSelections() const;

    /**
     * Post-launch observation callback, invoked with the final
     * LaunchReport of every launchKernel() call (profiled or plain).
     * A serving layer hooks this to feed the selection store without
     * wrapping every call site.
     */
    using LaunchObserver = std::function<void(const LaunchReport &)>;
    void setLaunchObserver(LaunchObserver observer);

    /**
     * Attach a trace sink (must outlive the runtime; nullptr
     * detaches).  When the tracer is enabled, every launch emits
     * spans on a track named @p trackName (default: the device name;
     * the dispatch service passes "devN:<name>" so same-named devices
     * stay distinguishable) -- the end-to-end launch, each
     * micro-profiling pass (on per-variant subtracks), guard strikes,
     * and the winner's bulk execution -- all stamped with
     * LaunchOptions::correlationId.
     */
    void setTracer(support::tracing::Tracer *tracer,
                   const std::string &trackName = std::string());

    /** The bound device. */
    sim::Device &device() { return dev; }

    /** The variant guard (health ledger + blacklist). */
    guard::VariantGuard &guard() { return guard_; }
    const guard::VariantGuard &guard() const { return guard_; }

  private:
    struct KernelEntry
    {
        std::vector<kdp::KernelVariant> variants;
        compiler::KernelInfo info;
        bool hasInfo = false;
    };

    /** Non-throwing pool lookup; nullptr for an unknown signature. */
    const KernelEntry *findEntry(const std::string &signature)
        const noexcept;

    /**
     * Turn a pending launch-aborting device fault into a Status
     * (Unavailable for a launch failure, DeadlineExceeded for a
     * hang); Ok when no fault is pending.
     */
    support::Status consumeDeviceFault();

    /** Notify the launch observer (if any) and forward the report. */
    LaunchReport finish(LaunchReport report);

    /** Whether the guard keeps @p variant of @p signature out. */
    bool excluded(const std::string &signature,
                  const kdp::KernelVariant &variant) const;

    /**
     * @p want, or the first registered variant the guard has not
     * blacklisted when it has blacklisted @p want; -1 when it has
     * blacklisted every variant.
     */
    int usableVariant(const std::string &signature,
                      const KernelEntry &entry, int want) const;

    /** Resolve the effective profiling mode for this launch. */
    ProfilingMode resolveMode(const KernelEntry &entry,
                              const LaunchOptions &opt) const;

    /** Run [first_unit, first_unit+units) with @p variant, batch. */
    void submitBatch(const kdp::KernelVariant &variant,
                     const kdp::KernelArgs &args, std::uint64_t first_unit,
                     std::uint64_t units, int priority, int stream,
                     std::function<void(const sim::LaunchStats &)> done);

    /** Non-profiled path: run everything with one variant. */
    support::Status runPlain(const std::string &signature,
                             const KernelEntry &entry, int variant,
                             std::uint64_t total_units,
                             const kdp::KernelArgs &args,
                             const LaunchOptions &opt, bool from_cache,
                             LaunchReport &report);

    /** Whether trace emission is live for the current launch. */
    bool tracing() const { return tracer_ && tracer_->enabled(); }

    sim::Device &dev;
    RuntimeConfig config;
    guard::VariantGuard guard_;
    std::map<std::string, KernelEntry> pool;
    std::map<std::string, int> selectionCache;
    LaunchObserver observer;

    support::tracing::Tracer *tracer_ = nullptr;
    /** Base track name (profiling subtracks append "/profile/..."). */
    std::string trackName_;
    /** The device's main trace track (valid while tracer_ is set). */
    std::uint64_t traceTrack = 0;
    /** Fused-grid member start offsets, reused across launchFused(). */
    std::vector<std::uint64_t> fusedStarts;
    /** Correlation id of the launch in flight (single-threaded). */
    std::uint64_t activeCorrelation = 0;
};

} // namespace runtime
} // namespace dysel
