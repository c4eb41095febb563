/**
 * @file
 * Result record of one DySelLaunchKernel call.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hh"

#include "options.hh"

namespace dysel {
namespace runtime {

/**
 * What micro-profiling found out about one registered variant: how
 * fast its slice ran and whether the guard accepted its output.
 */
struct VariantProfile
{
    std::string name;
    /**
     * Profiling measurement (Fig. 7 span on GPU, task time on CPU),
     * averaged over repeats; 0 for a pass that never completed or was
     * skipped.
     */
    sim::TimeNs metric = 0;
    /** Wall span of the first profiling execution. */
    sim::TimeNs span = 0;
    /** Sum of work-group busy times of the first execution. */
    sim::TimeNs busy = 0;
    /** Workload units the pass profiled (0 if it never completed). */
    std::uint64_t units = 0;
    /** Virtual start/end of the first profiling execution. */
    sim::TimeNs startTime = 0;
    sim::TimeNs endTime = 0;
    /**
     * Guard verdict of the pass: "pass", a tripped check's name
     * ("mismatch", "redzone", "nan", "watchdog"), or "blacklisted"
     * for a variant excluded before profiling.  "pass" also covers
     * launches with the guard off.
     */
    std::string outcome = "pass";
    /** This variant won the selection. */
    bool selected = false;
};

/** Everything the runtime can tell about one launch. */
struct LaunchReport
{
    std::string signature;
    int selected = -1;
    std::string selectedName;
    bool profiled = false;          ///< micro-profiling actually ran
    bool fromCache = false;         ///< selection reused from cache
    ProfilingMode mode = ProfilingMode::Fully;
    Orchestration orch = Orchestration::Sync;

    /** Virtual time the call started / ended. */
    sim::TimeNs startTime = 0;
    sim::TimeNs endTime = 0;

    /**
     * True for a fused (batched) launch: several jobs' workloads ran
     * back to back under one device submit.  Fused reports must not
     * feed the store's drift baseline (the launch overhead is
     * amortized across members, so per-unit time is not comparable
     * to a solo run); the service accounts them via noteServed().
     */
    bool fused = false;
    /** Member jobs of a fused launch (0 for a solo launch). */
    std::uint64_t fusedJobs = 0;

    /**
     * True for a shadow audit probe (LaunchOptions::shadow): a small
     * forced-variant measurement slice.  Like fused launches, shadow
     * reports must not feed the drift baseline -- their per-unit time
     * is not comparable to a full production run.
     */
    bool shadow = false;

    std::uint64_t totalUnits = 0;
    /** Units consumed by micro-profiling (all variants). */
    std::uint64_t profiledUnits = 0;
    /** Units whose profiling results were kept (productive output). */
    std::uint64_t productiveUnits = 0;
    /** Extra buffer bytes allocated for sandboxes / private outputs. */
    std::uint64_t extraBytes = 0;
    /** Eager chunks dispatched before profiling completed (async). */
    std::uint64_t eagerChunks = 0;

    /**
     * Profiled launches only: one entry per registered variant --
     * profiled, struck, or excluded -- in registration order, so
     * profiles[i] describes variant i.  This is the structured record
     * a serving layer renders as "why did this variant win".
     */
    std::vector<VariantProfile> profiles;

    /** Variants excluded up front because they were blacklisted. */
    std::uint64_t guardExcluded = 0;
    /** Productive slices re-executed after their producer failed. */
    std::uint64_t guardRepairs = 0;

    /** End-to-end virtual time of the call. */
    sim::TimeNs elapsed() const { return endTime - startTime; }
};

} // namespace runtime
} // namespace dysel
