#include "runtime.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "support/logging.hh"
#include "support/math_util.hh"

namespace dysel {
namespace runtime {

using support::ceilDiv;
using support::roundUp;

const char *
orchestrationName(Orchestration o)
{
    switch (o) {
      case Orchestration::Sync: return "sync";
      case Orchestration::Async: return "async";
    }
    return "?";
}

Runtime::Runtime(sim::Device &device, const RuntimeConfig &cfg)
    : dev(device), config(cfg), guard_(cfg.guard)
{
}

support::Status
Runtime::tryAddKernel(const std::string &signature,
                      kdp::KernelVariant variant)
{
    if (!variant.fn)
        return support::Status::invalidArgument(
            "DySelAddKernel(" + signature + "): variant '" + variant.name
            + "' has no implementation");
    if (variant.waFactor == 0 || variant.groupSize == 0)
        return support::Status::invalidArgument(
            "DySelAddKernel(" + signature + "): variant '" + variant.name
            + "' has zero work assignment factor or group size");
    KernelEntry &entry = pool[signature];
    for (const auto &v : entry.variants)
        if (v.name == variant.name)
            return support::Status::invalidArgument(
                "DySelAddKernel(" + signature + "): duplicate variant '"
                + variant.name + "'");
    entry.variants.push_back(std::move(variant));
    return support::Status();
}

void
Runtime::addKernel(const std::string &signature, kdp::KernelVariant variant)
{
    tryAddKernel(signature, std::move(variant)).throwIfError();
}

void
Runtime::setKernelInfo(const std::string &signature,
                       compiler::KernelInfo info)
{
    KernelEntry &entry = pool[signature];
    entry.info = std::move(info);
    entry.hasInfo = true;
}

std::size_t
Runtime::variantCount(const std::string &signature) const
{
    auto it = pool.find(signature);
    return it == pool.end() ? 0 : it->second.variants.size();
}

const std::vector<kdp::KernelVariant> *
Runtime::findVariants(const std::string &signature) const noexcept
{
    const KernelEntry *entry = findEntry(signature);
    return entry ? &entry->variants : nullptr;
}

const compiler::KernelInfo *
Runtime::findKernelInfo(const std::string &signature) const noexcept
{
    const KernelEntry *entry = findEntry(signature);
    return entry && entry->hasInfo ? &entry->info : nullptr;
}

const Runtime::KernelEntry *
Runtime::findEntry(const std::string &signature) const noexcept
{
    auto it = pool.find(signature);
    return it == pool.end() ? nullptr : &it->second;
}

support::Status
Runtime::consumeDeviceFault()
{
    const auto fault = dev.takeFault();
    if (!fault)
        return support::Status();
    const std::string where =
        " (variant '" + fault->variant + "' on " + fault->device + ")";
    if (fault->kind == sim::FaultKind::Hang)
        return support::Status::deadlineExceeded(
            "DySel: device hung during launch" + where);
    return support::Status::unavailable(
        "DySel: injected launch failure" + where);
}

bool
Runtime::hasKernel(const std::string &signature) const
{
    return pool.count(signature) > 0;
}

void
Runtime::removeKernel(const std::string &signature)
{
    pool.erase(signature);
    selectionCache.erase(signature);
}

void
Runtime::clearSelectionCache()
{
    selectionCache.clear();
}

std::optional<int>
Runtime::cachedSelection(const std::string &signature) const
{
    auto it = selectionCache.find(signature);
    if (it == selectionCache.end())
        return std::nullopt;
    return it->second;
}

support::Status
Runtime::tryImportSelection(const std::string &signature, int variant)
{
    const KernelEntry *entry = findEntry(signature);
    if (!entry)
        return support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'");
    if (variant < 0
        || variant >= static_cast<int>(entry->variants.size()))
        return support::Status::invalidArgument(
            "DySel: imported selection " + std::to_string(variant)
            + " out of range for '" + signature + "'");
    if (excluded(signature, entry->variants[variant]))
        return support::Status::failedPrecondition(
            "DySel: variant '" + entry->variants[variant].name
            + "' is blacklisted for '" + signature + "'");
    selectionCache[signature] = variant;
    return support::Status();
}

std::map<std::string, int>
Runtime::exportSelections() const
{
    return selectionCache;
}

void
Runtime::setLaunchObserver(LaunchObserver obs)
{
    observer = std::move(obs);
}

void
Runtime::setTracer(support::tracing::Tracer *tracer,
                   const std::string &trackName)
{
    tracer_ = tracer;
    trackName_ = trackName.empty() ? dev.name() : trackName;
    traceTrack = tracer_ ? tracer_->track(trackName_) : 0;
}

LaunchReport
Runtime::finish(LaunchReport report)
{
    if (observer)
        observer(report);
    return report;
}

bool
Runtime::excluded(const std::string &signature,
                  const kdp::KernelVariant &variant) const
{
    return guard_.enabled() && guard_.isBlacklisted(signature, variant.name);
}

int
Runtime::usableVariant(const std::string &signature,
                       const KernelEntry &entry, int want) const
{
    if (!excluded(signature, entry.variants[want]))
        return want;
    for (std::size_t i = 0; i < entry.variants.size(); ++i)
        if (!excluded(signature, entry.variants[i]))
            return static_cast<int>(i);
    return -1;
}

ProfilingMode
Runtime::resolveMode(const KernelEntry &entry,
                     const LaunchOptions &opt) const
{
    if (opt.modeExplicit)
        return opt.mode;
    if (entry.hasInfo)
        return compiler::recommendProfilingMode(entry.info);
    return ProfilingMode::Fully;
}

void
Runtime::submitBatch(const kdp::KernelVariant &variant,
                     const kdp::KernelArgs &args, std::uint64_t first_unit,
                     std::uint64_t units, int priority, int stream,
                     std::function<void(const sim::LaunchStats &)> done)
{
    if (first_unit % variant.waFactor != 0)
        support::panic("batch start unit %llu not aligned to wa factor "
                       "%llu of variant '%s'",
                       (unsigned long long)first_unit,
                       (unsigned long long)variant.waFactor,
                       variant.name.c_str());
    sim::Launch launch;
    launch.variant = &variant;
    launch.args = args;
    launch.firstGroup = first_unit / variant.waFactor;
    launch.numGroups = ceilDiv(units, variant.waFactor);
    launch.priority = priority;
    launch.stream = stream;
    launch.onComplete = std::move(done);
    if (config.verbose)
        support::inform("submitBatch t=%llu variant=%s units=[%llu,%llu) "
                        "groups=%llu prio=%d",
                        (unsigned long long)dev.now(),
                        variant.name.c_str(),
                        (unsigned long long)first_unit,
                        (unsigned long long)(first_unit + units),
                        (unsigned long long)launch.numGroups, priority);
    if (tracing()) {
        tracer_->instant(
            traceTrack, "device.submit", dev.now(), activeCorrelation,
            {{"variant", variant.name},
             {"units", std::to_string(units)},
             {"groups", std::to_string(launch.numGroups)}});
    }
    dev.submit(std::move(launch));
}

support::Status
Runtime::runPlain(const std::string &signature, const KernelEntry &entry,
                  int variant, std::uint64_t total_units,
                  const kdp::KernelArgs &args, const LaunchOptions &opt,
                  bool from_cache, LaunchReport &out)
{
    LaunchReport report;
    report.signature = signature;
    report.selected = variant;
    report.selectedName = entry.variants[variant].name;
    report.fromCache = from_cache;
    report.shadow = opt.shadow;
    report.orch = opt.orch;
    report.totalUnits = total_units;
    report.startTime = dev.now();
    activeCorrelation = opt.correlationId;

    submitBatch(entry.variants[variant], args, 0, total_units, 0, 0,
                nullptr);
    dev.run();
    if (auto fault = consumeDeviceFault(); !fault.ok())
        return fault;
    report.endTime = dev.now();
    if (tracing()) {
        tracer_->complete(
            traceTrack, "execute", report.startTime, report.endTime,
            opt.correlationId,
            {{"variant", report.selectedName},
             {"units", std::to_string(total_units)},
             {"cached", from_cache ? "yes" : "no"}});
    }
    out = finish(std::move(report));
    return support::Status();
}

support::Status
Runtime::launchFused(const std::string &signature, int variant,
                     std::span<const FusedSlice> slices,
                     const LaunchOptions &opt, LaunchReport &out)
{
    const KernelEntry *entryp = findEntry(signature);
    if (!entryp)
        return support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'");
    const KernelEntry &entry = *entryp;
    if (entry.variants.empty())
        return support::Status::failedPrecondition(
            "DySelLaunchFused(" + signature + "): no variants registered");
    if (slices.empty())
        return support::Status::invalidArgument(
            "DySelLaunchFused(" + signature + "): empty batch");

    // Resolve the variant: an explicit index is the serving layer's
    // warm store winner; -1 applies the plain-run default policy.
    int want = variant;
    if (want < 0) {
        auto cached = cachedSelection(signature);
        want = cached.value_or(
            opt.initialVariant >= 0 ? opt.initialVariant : 0);
    }
    if (want < 0 || want >= static_cast<int>(entry.variants.size()))
        return support::Status::invalidArgument(
            "DySelLaunchFused(" + signature + "): variant "
            + std::to_string(want) + " out of range");
    want = usableVariant(signature, entry, want);
    if (want < 0)
        return support::Status::failedPrecondition(
            "DySelLaunchFused(" + signature
            + "): every variant is blacklisted");
    const kdp::KernelVariant &real = entry.variants[want];

    // Member m occupies fused groups [fusedStarts[m], fusedStarts[m+1]).
    fusedStarts.clear();
    fusedStarts.reserve(slices.size() + 1);
    std::uint64_t groups = 0;
    std::uint64_t total_units = 0;
    fusedStarts.push_back(0);
    for (const FusedSlice &s : slices) {
        if (!s.args || s.units == 0)
            return support::Status::invalidArgument(
                "DySelLaunchFused(" + signature
                + "): fused slice without args or units");
        groups += real.groupsFor(s.units);
        total_units += s.units;
        fusedStarts.push_back(groups);
    }

    // Pack factor: a variant whose waFactor underfills its lanes
    // (waFactor < groupSize, the typical tiny-job shape) leaves most
    // of a physical group idle, so each physical group runs `pack`
    // consecutive member groups back to back.  Every member group
    // keeps its exact solo-launch context (re-addressed into the
    // member's own grid with the member's own argument list); only the
    // per-group scheduling constant is amortized.  For waFactor >=
    // groupSize this degenerates to one member group per physical
    // group, the unpacked behaviour.
    const std::uint64_t pack = std::max<std::uint64_t>(
        1, real.groupSize / std::max<std::uint64_t>(1, real.waFactor));
    const std::uint64_t physGroups = (groups + pack - 1) / pack;

    // The wrapper variant re-addresses the physical group's context
    // in place for each fused member group (GroupCtx::restart) and
    // runs the real implementation with the member's own argument
    // list.  The first member is found once per physical group; the
    // rest follow by walking forward.  The wrapper carries the real
    // variant's name so launch-level fault injection treats fused and
    // solo launches alike, but no sandboxIndex: output-corruption
    // faults target profiling launches, where the guard can catch
    // them.
    kdp::KernelVariant wrapper;
    wrapper.name = real.name;
    wrapper.waFactor = real.waFactor;
    wrapper.groupSize = real.groupSize;
    wrapper.traits = real.traits;
    const std::uint64_t *starts = fusedStarts.data();
    const FusedSlice *mem = slices.data();
    const std::size_t nmem = slices.size();
    const kdp::KernelFn &fn = real.fn;
    wrapper.fn = [starts, mem, nmem, &fn, pack](kdp::GroupCtx &g,
                                                const kdp::KernelArgs &) {
        const std::uint64_t lo = g.group() * pack;
        const std::uint64_t hi = std::min(lo + pack, starts[nmem]);
        std::size_t m = static_cast<std::size_t>(
            std::upper_bound(starts, starts + nmem + 1, lo) - starts) - 1;
        for (std::uint64_t mg = lo; mg < hi; ++mg) {
            while (starts[m + 1] <= mg)
                ++m;
            g.restart(mg - starts[m]);
            fn(g, *mem[m].args);
        }
    };

    LaunchReport report;
    report.signature = signature;
    report.selected = want;
    report.selectedName = real.name;
    report.fromCache = variant >= 0;
    report.fused = true;
    report.fusedJobs = slices.size();
    report.orch = opt.orch;
    report.totalUnits = total_units;
    report.startTime = dev.now();
    activeCorrelation = opt.correlationId;

    sim::Launch launch;
    launch.variant = &wrapper;
    launch.firstGroup = 0;
    launch.numGroups = physGroups;
    if (config.verbose)
        support::inform("launchFused t=%llu variant=%s jobs=%zu "
                        "units=%llu groups=%llu pack=%llu",
                        (unsigned long long)dev.now(), real.name.c_str(),
                        nmem, (unsigned long long)total_units,
                        (unsigned long long)physGroups,
                        (unsigned long long)pack);
    if (tracing()) {
        tracer_->instant(
            traceTrack, "device.submit", dev.now(), activeCorrelation,
            {{"variant", real.name},
             {"units", std::to_string(total_units)},
             {"groups", std::to_string(physGroups)},
             {"pack", std::to_string(pack)},
             {"fused_jobs", std::to_string(nmem)}});
    }
    dev.submit(std::move(launch));
    dev.run();
    if (auto fault = consumeDeviceFault(); !fault.ok())
        return fault;
    report.endTime = dev.now();
    if (tracing()) {
        for (std::size_t m = 0; m < nmem; ++m) {
            tracer_->instant(
                traceTrack, "batch.slice", report.endTime,
                mem[m].correlationId,
                {{"variant", real.name},
                 {"units", std::to_string(mem[m].units)}});
        }
        tracer_->complete(
            traceTrack, "execute.fused", report.startTime, report.endTime,
            opt.correlationId,
            {{"variant", real.name},
             {"jobs", std::to_string(nmem)},
             {"units", std::to_string(total_units)}});
    }
    out = finish(std::move(report));
    return support::Status();
}

LaunchReport
Runtime::launchKernel(const std::string &signature,
                      std::uint64_t total_units,
                      const kdp::KernelArgs &args, const LaunchOptions &opt)
{
    LaunchReport report;
    launch(signature, total_units, args, opt, report).throwIfError();
    return report;
}

support::Status
Runtime::launch(const std::string &signature, std::uint64_t total_units,
                const kdp::KernelArgs &args, const LaunchOptions &opt,
                LaunchReport &out)
{
    const KernelEntry *entryp = findEntry(signature);
    if (!entryp)
        return support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'");
    const KernelEntry &entry = *entryp;
    const auto num_variants = entry.variants.size();
    activeCorrelation = opt.correlationId;
    if (num_variants == 0)
        return support::Status::failedPrecondition(
            "DySelLaunchKernel(" + signature
            + "): no variants registered");
    if (total_units == 0)
        return support::Status::invalidArgument(
            "DySelLaunchKernel(" + signature + "): empty workload");
    if (opt.initialVariant >= static_cast<int>(num_variants))
        return support::Status::invalidArgument(
            "DySelLaunchKernel(" + signature + "): initial variant "
            + std::to_string(opt.initialVariant) + " out of range");
    const int default_variant =
        opt.initialVariant >= 0 ? opt.initialVariant : 0;
    // A requested variant the guard has blacklisted falls back to the
    // first one it has not.
    const int fallback = usableVariant(signature, entry, default_variant);
    if (fallback < 0)
        return support::Status::failedPrecondition(
            "DySelLaunchKernel(" + signature
            + "): every variant is blacklisted");

    // Profiling deactivated: reuse the cached selection (iterative
    // kernels profile only their first launch) or fall back to the
    // default variant.
    if (!opt.profiling) {
        auto cached = cachedSelection(signature);
        if (!cached && !opt.shadow && config.verbose)
            support::warn("DySelLaunchKernel(%s): profiling off with no "
                          "cached selection; using default variant",
                          signature.c_str());
        // A shadow audit probe measures a *forced* variant: the
        // explicit initialVariant outranks the cached winner (which
        // is exactly what the probe is second-guessing).
        const int want = opt.shadow && opt.initialVariant >= 0
                             ? opt.initialVariant
                             : cached.value_or(default_variant);
        const int use = usableVariant(signature, entry, want);
        return runPlain(signature, entry, use, total_units, args, opt,
                        cached.has_value() && use == want, out);
    }

    // ---- Guard: exclude blacklisted variants up front ----------------
    // `act` maps active-local index j -> registration index; the
    // profiling passes below are indexed by j.
    std::vector<std::size_t> act;
    act.reserve(num_variants);
    for (std::size_t i = 0; i < num_variants; ++i)
        if (!excluded(signature, entry.variants[i]))
            act.push_back(i);

    if (act.size() == 1)
        return runPlain(signature, entry, static_cast<int>(act.front()),
                        total_units, args, opt, false, out);

    ProfilingMode mode = resolveMode(entry, opt);
    Orchestration orch = opt.orch;
    if (mode == ProfilingMode::Swap && orch == Orchestration::Async) {
        // The final output space is unknown until profiling completes
        // (Table 1): swap cannot run eagerly.
        orch = Orchestration::Sync;
    }
    if (guard_.enabled() && orch == Orchestration::Async) {
        // The guard must validate a variant before its output becomes
        // real; eager chunks by an unvalidated best-so-far would leak
        // unchecked writes into the final buffer.
        orch = Orchestration::Sync;
    }
    unsigned repeats = opt.profileRepeats;
    if (repeats == 0)
        repeats = dev.kind() == sim::DeviceKind::Cpu ? 2 : 1;
    if (mode == ProfilingMode::Swap && repeats > 1) {
        support::warn("DySelLaunchKernel(%s): profile repeats are not "
                      "supported with swap profiling; using 1",
                      signature.c_str());
        repeats = 1;
    }

    const std::size_t num_active = act.size();

    // Safe point analysis: how much each active variant profiles.
    std::vector<std::uint64_t> wafs;
    wafs.reserve(num_active);
    for (std::size_t i : act)
        wafs.push_back(entry.variants[i].waFactor);
    unsigned fill_target = dev.computeUnits();
    if (dev.kind() == sim::DeviceKind::Gpu)
        fill_target *= std::max(1u, config.gpuSaturationBoost);
    const compiler::SafePointPlan plan = compiler::safePointAnalysis(
        wafs, fill_target, total_units, config.maxProfileFraction);

    if (total_units < config.minUnitsForProfiling
        || plan.unitsPerVariant == 0) {
        // Small workload: profiling-based selection is deactivated.
        return runPlain(signature, entry, fallback, total_units, args,
                        opt, false, out);
    }

    const std::uint64_t slice = plan.unitsPerVariant;
    const std::uint64_t profiled_span_units =
        mode == ProfilingMode::Fully ? slice * num_active : slice;

    LaunchReport report;
    report.signature = signature;
    report.profiled = true;
    report.mode = mode;
    report.orch = orch;
    report.totalUnits = total_units;
    report.profiledUnits = slice * num_active * repeats;
    report.productiveUnits =
        mode == ProfilingMode::Fully ? slice * num_active : slice;
    report.guardExcluded = num_variants - act.size();
    report.startTime = dev.now();

    // ---- Sandbox / private output spaces -----------------------------
    auto outputs_of = [&](const kdp::KernelVariant &v) {
        if (!v.sandboxIndex.empty())
            return v.sandboxIndex;
        if (entry.hasInfo)
            return entry.info.outputArgs;
        return std::vector<std::size_t>{};
    };

    std::vector<kdp::KernelArgs> vargs(num_active, args);
    std::vector<std::unique_ptr<kdp::BufferBase>> extras;
    // Winner's (arg index, private clone) pairs for the final swap.
    std::vector<std::vector<std::pair<std::size_t, kdp::BufferBase *>>>
        swap_map(num_active);

    if (mode != ProfilingMode::Fully) {
        const std::size_t first_cloned =
            mode == ProfilingMode::Hybrid ? 1 : 0;
        for (std::size_t j = first_cloned; j < num_active; ++j) {
            const auto outs = outputs_of(entry.variants[act[j]]);
            if (outs.empty())
                return support::Status::failedPrecondition(
                    "DySelLaunchKernel(" + signature + "): "
                    + std::string(compiler::profilingModeName(mode))
                    + " profiling needs sandbox indices or output-arg "
                      "metadata");
            for (std::size_t idx : outs) {
                // With the guard on, sandboxes grow a trailing canary
                // redzone so an out-of-bounds writer is caught.
                auto clone = guard_.enabled()
                    ? args.bufBase(idx).clonePadded(
                          guard_.config().redzoneElems)
                    : args.bufBase(idx).clone();
                if (guard_.enabled())
                    guard::VariantGuard::paintRedzone(*clone);
                report.extraBytes += clone->sizeBytes();
                vargs[j].rebind(idx, *clone);
                swap_map[j].emplace_back(idx, clone.get());
                extras.push_back(std::move(clone));
            }
        }
    }

    // ---- Shared profiling state --------------------------------------
    /// One micro-profiling pass: an active variant's slice, executed
    /// `repeats` times.
    struct Pass
    {
        std::size_t variant = 0; ///< registration index
        sim::TimeNs metric = std::numeric_limits<sim::TimeNs>::max();
        /// Aggregation across repeats: the first repeat doubles as a
        /// cache warmup, later repeats are averaged -- which is what
        /// makes extra executions recover selection accuracy under
        /// measurement noise (§5.2).
        double metricSum = 0.0;
        unsigned metricCount = 0;
        unsigned completions = 0;
        /// The pass's report entry; its outcome is the guard verdict.
        VariantProfile profile;

        bool struck() const { return profile.outcome != "pass"; }
    };
    struct PState
    {
        std::vector<Pass> passes;
        unsigned outstanding = 0;
        int bestSoFar = 0;
        sim::TimeNs bestMetric = std::numeric_limits<sim::TimeNs>::max();
        bool profilingDone = false;
        int selected = -1;
        std::uint64_t nextUnit = 0;
        bool batchSubmitted = false;
        std::uint64_t eagerChunks = 0;
        std::uint64_t repairs = 0;
        bool allFailed = false;
        sim::TimeNs remainderStart = 0;
    };
    auto st = std::make_shared<PState>();
    st->passes.resize(num_active);
    for (std::size_t j = 0; j < num_active; ++j) {
        st->passes[j].variant = act[j];
        st->passes[j].profile.name = entry.variants[act[j]].name;
        // Eager execution starts with the default variant (or the
        // first healthy one if the default is blacklisted).
        if (static_cast<int>(act[j]) == fallback)
            st->bestSoFar = static_cast<int>(j);
    }
    st->outstanding = static_cast<unsigned>(num_active) * repeats;
    st->nextUnit = profiled_span_units;

    // A guard strike: the pass's outcome names the tripped check.
    auto strike = [this, st, &signature](std::size_t j,
                                         guard::CheckKind ck) {
        VariantProfile &prof = st->passes[j].profile;
        prof.outcome = guard::checkKindName(ck);
        guard_.strike(signature, prof.name, ck);
    };

    const bool gpu = dev.kind() == sim::DeviceKind::Gpu;

    // Forward declaration of the post-profiling step.
    auto finish_profiling = std::make_shared<std::function<void()>>();

    // ---- Submit the profiling launches -------------------------------
    for (std::size_t j = 0; j < num_active; ++j) {
        const kdp::KernelVariant &variant = entry.variants[act[j]];
        const std::uint64_t first_unit =
            mode == ProfilingMode::Fully ? j * slice : 0;
        // Profiling passes render on a subtrack per (device, variant)
        // so concurrent passes don't overlap on one timeline row.
        const std::uint64_t passTrack =
            tracing() ? tracer_->track(trackName_ + "/profile/"
                                       + variant.name)
                      : 0;
        for (unsigned r = 0; r < repeats; ++r) {
            sim::Launch launch;
            launch.variant = &variant;
            launch.args = vargs[j];
            launch.firstGroup = first_unit / variant.waFactor;
            launch.numGroups = plan.groups[j];
            launch.priority = 1;
            launch.stream = 1 + static_cast<int>(j);
            // GPU profiling kernels measure in effective isolation
            // (concurrent kernels overlap only at tails on Kepler).
            launch.exclusive = gpu;
            launch.onComplete = [this, st, finish_profiling, j, gpu, slice,
                                 r, repeats,
                                 passTrack](const sim::LaunchStats &stats) {
                // The GPU metric is the Fig. 7 in-kernel span: earliest
                // group start stamp to latest group end stamp.
                const sim::TimeNs m =
                    gpu ? stats.span() : stats.busyTime;
                Pass &pass = st->passes[j];
                VariantProfile &prof = pass.profile;
                if (repeats == 1 || r > 0) {
                    // With repeats, the first execution is a cache
                    // warmup; steady-state repeats are averaged.
                    pass.metricSum += static_cast<double>(m);
                    pass.metricCount++;
                    pass.metric = static_cast<sim::TimeNs>(
                        pass.metricSum / pass.metricCount);
                }
                if (r == 0) {
                    prof.span = stats.span();
                    prof.busy = stats.busyTime;
                    prof.startTime = stats.firstStamp;
                    prof.endTime = stats.lastStamp;
                }
                if (++pass.completions == repeats) {
                    prof.units = slice;
                    prof.metric = pass.metric;
                }
                if (tracing()) {
                    tracer_->complete(
                        passTrack, "profile:" + prof.name,
                        stats.firstStamp, stats.lastStamp,
                        activeCorrelation,
                        {{"variant", prof.name},
                         {"repeat", std::to_string(r)},
                         {"units", std::to_string(slice)},
                         {"metric", std::to_string(m)}});
                }
                if (pass.metric < st->bestMetric) {
                    st->bestMetric = pass.metric;
                    st->bestSoFar = static_cast<int>(j);
                }
                if (--st->outstanding == 0)
                    (*finish_profiling)();
            };
            dev.submit(std::move(launch));
        }
    }

    // ---- Post-profiling: validate, select, swap, launch the rest -----
    *finish_profiling = [this, st, strike, &entry, &args, &swap_map, mode,
                         total_units, signature, slice] {
        st->profilingDone = true;
        std::vector<Pass> &passes = st->passes;
        const std::size_t n = passes.size();

        if (guard_.enabled() && mode != ProfilingMode::Fully) {
            // Self checks on each variant's private clones (in hybrid
            // mode variant 0 has none; only the watchdog covers it).
            // At most one strike per variant per pass, in check order:
            // redzone, NaN, mismatch.
            for (std::size_t j = 0; j < n; ++j) {
                if (passes[j].struck())
                    continue;
                bool bad_rz = false;
                bool bad_nan = false;
                for (const auto &[idx, clone] : swap_map[j]) {
                    (void)idx;
                    if (!guard::VariantGuard::redzoneIntact(*clone))
                        bad_rz = true;
                    else if (guard::VariantGuard::hasNanOrInf(*clone))
                        bad_nan = true;
                }
                if (bad_rz)
                    strike(j, guard::CheckKind::Redzone);
                else if (bad_nan)
                    strike(j, guard::CheckKind::NanInf);
            }
            // Cross-check everyone against the reference: the first
            // variant that passed its self checks.  (A corrupt
            // reference with plausible values defeats this -- a
            // documented reference-trust limitation.)
            std::size_t ref = n;
            for (std::size_t j = 0; j < n; ++j) {
                if (!passes[j].struck()) {
                    ref = j;
                    break;
                }
            }
            for (std::size_t j = 0; ref < n && j < n; ++j) {
                if (j == ref || passes[j].struck())
                    continue;
                bool match = true;
                for (const auto &[idx, clone] : swap_map[j]) {
                    // The reference output for this arg: its own
                    // clone, or the real buffer (hybrid ref 0).
                    const kdp::BufferBase *refbuf = &args.bufBase(idx);
                    for (const auto &[ridx, rclone] : swap_map[ref])
                        if (ridx == idx)
                            refbuf = rclone;
                    if (!guard_.outputsMatch(*refbuf, *clone)) {
                        match = false;
                        break;
                    }
                }
                if (!match)
                    strike(j, guard::CheckKind::Mismatch);
            }
            for (const Pass &pass : passes)
                if (!pass.struck())
                    guard_.pass(signature, pass.profile.name);
        }

        // Select the fastest variant that survived validation.
        std::size_t best = n;
        for (std::size_t j = 0; j < n; ++j) {
            if (passes[j].struck())
                continue;
            if (best == n || passes[j].metric < passes[best].metric)
                best = j;
        }
        if (best == n) {
            // Every variant failed validation: there is no
            // trustworthy implementation to run the remainder with.
            st->allFailed = true;
            st->selected = -1;
            return;
        }
        st->selected = static_cast<int>(passes[best].variant);
        selectionCache[signature] = st->selected;

        if (mode == ProfilingMode::Swap) {
            // Swap the winner's private outputs into place; the
            // losers' copies are discarded.  On real hardware this is
            // a pointer swap, so no virtual time is charged.  Guarded
            // clones are redzone-padded, so only the data prefix is
            // copied.
            for (const auto &[idx, clone] : swap_map[best]) {
                if (guard_.enabled())
                    guard::VariantGuard::copyData(args.bufBase(idx),
                                                  *clone);
                else
                    args.bufBase(idx).copyFrom(*clone);
            }
        }

        if (guard_.enabled()) {
            // Repair productive slices whose producer failed, so
            // profiling stays productive: in hybrid mode a failed
            // variant 0 invalidates units [0, slice) of the real
            // output; in fully mode each failed variant leaves its
            // own slice unwritten or corrupt.
            const kdp::KernelVariant &winner =
                entry.variants[st->selected];
            if (mode == ProfilingMode::Hybrid && passes[0].struck()) {
                st->repairs++;
                submitBatch(winner, args, 0, slice, 1, 0, nullptr);
            } else if (mode == ProfilingMode::Fully) {
                for (std::size_t j = 0; j < n; ++j) {
                    if (!passes[j].struck())
                        continue;
                    st->repairs++;
                    submitBatch(winner, args, j * slice, slice, 1, 0,
                                nullptr);
                }
            }
        }

        if (st->nextUnit < total_units && !st->batchSubmitted) {
            st->batchSubmitted = true;
            // Host-side cost of noticing completion and launching.
            dev.engine().scheduleAfter(
                dev.hostQueryLatencyNs(),
                [this, st, &entry, &args, total_units] {
                    st->remainderStart = dev.now();
                    submitBatch(entry.variants[st->selected], args,
                                st->nextUnit, total_units - st->nextUnit,
                                0, 0, nullptr);
                    st->nextUnit = total_units;
                });
        }
    };

    // ---- Async eager execution (Fig. 4b) ------------------------------
    if (orch == Orchestration::Async) {
        std::uint64_t chunk = opt.eagerChunkUnits;
        if (chunk == 0) {
            chunk = std::max<std::uint64_t>(plan.lcm * plan.scale,
                                            total_units / 32);
        }
        chunk = roundUp(chunk, plan.lcm);

        auto pump = std::make_shared<std::function<void()>>();
        // The continuations capture pump weakly: the local shared_ptr
        // outlives dev.run() below, and a strong self-capture would
        // cycle and leak the profiling state.
        std::weak_ptr<std::function<void()>> pump_weak = pump;
        *pump = [this, st, &entry, &args, total_units, chunk, pump_weak] {
            if (st->profilingDone || st->batchSubmitted)
                return; // the remainder goes out as one batch
            if (st->nextUnit >= total_units)
                return;
            const std::uint64_t units =
                std::min<std::uint64_t>(chunk, total_units - st->nextUnit);
            const kdp::KernelVariant &variant =
                entry.variants[st->passes[st->bestSoFar].variant];
            st->eagerChunks++;
            const std::uint64_t first = st->nextUnit;
            st->nextUnit += units;
            submitBatch(variant, args, first, units, 0, 0,
                        [this, pump_weak](const sim::LaunchStats &) {
                            dev.engine().scheduleAfter(
                                dev.hostQueryLatencyNs(), [pump_weak] {
                                    if (auto p = pump_weak.lock())
                                        (*p)();
                                });
                        });
        };
        dev.engine().scheduleAfter(dev.hostQueryLatencyNs(),
                                   [pump] { (*pump)(); });
    }

    dev.run();

    if (auto fault = consumeDeviceFault(); !fault.ok())
        return fault;

    if (!st->profilingDone) {
        if (!guard_.enabled())
            support::panic("profiling did not complete for '%s'",
                           signature.c_str());
        // Watchdog: the event queue drained with profiling slices
        // still missing -- a hung variant's launches never completed.
        // Strike the laggards and finish selection with the
        // survivors, then drain the repair / remainder work.
        bool any_hung = false;
        for (std::size_t j = 0; j < num_active; ++j) {
            if (st->passes[j].completions >= repeats)
                continue;
            any_hung = true;
            strike(j, guard::CheckKind::Watchdog);
        }
        if (!any_hung)
            support::panic("profiling did not complete for '%s'",
                           signature.c_str());
        (*finish_profiling)();
        dev.run();
        if (auto fault = consumeDeviceFault(); !fault.ok())
            return fault;
    }

    if (st->allFailed)
        return support::Status::dataLoss(
            "DySelLaunchKernel(" + signature + "): every variant "
            "failed guard validation; no trustworthy output");

    report.selected = st->selected;
    report.selectedName = entry.variants[st->selected].name;
    report.eagerChunks = st->eagerChunks;
    report.guardRepairs = st->repairs;
    report.endTime = dev.now();

    // One profile per registered variant, registration order: the
    // passes, with the variants the guard excluded in between.
    report.profiles.reserve(num_variants);
    std::size_t j = 0;
    for (std::size_t i = 0; i < num_variants; ++i) {
        if (j < num_active && st->passes[j].variant == i) {
            VariantProfile &prof = st->passes[j++].profile;
            prof.selected = static_cast<int>(i) == st->selected;
            report.profiles.push_back(std::move(prof));
        } else {
            VariantProfile &prof = report.profiles.emplace_back();
            prof.name = entry.variants[i].name;
            prof.outcome = "blacklisted";
        }
    }

    if (tracing()) {
        if (st->batchSubmitted) {
            // The winner's bulk execution of the remainder.
            tracer_->complete(
                traceTrack, "execute", st->remainderStart,
                report.endTime, opt.correlationId,
                {{"variant", report.selectedName},
                 {"units",
                  std::to_string(total_units - profiled_span_units)},
                 {"winner", "yes"}});
        }
        tracer_->complete(
            traceTrack, "launch", report.startTime, report.endTime,
            opt.correlationId,
            {{"signature", signature},
             {"mode", compiler::profilingModeName(mode)},
             {"orch", orchestrationName(orch)},
             {"selected", report.selectedName},
             {"profiledUnits", std::to_string(report.profiledUnits)},
             {"totalUnits", std::to_string(total_units)}});
    }

    if (config.verbose) {
        support::inform("DySel[%s]: selected '%s' (%s, %s), %llu eager "
                        "chunks, %.2f%% profiled",
                        signature.c_str(), report.selectedName.c_str(),
                        compiler::profilingModeName(mode),
                        orchestrationName(orch),
                        (unsigned long long)report.eagerChunks,
                        100.0 * static_cast<double>(report.profiledUnits)
                            / static_cast<double>(total_units));
    }
    out = finish(std::move(report));
    return support::Status();
}

} // namespace runtime
} // namespace dysel
