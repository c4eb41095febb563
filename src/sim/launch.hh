/**
 * @file
 * Device-facing launch requests and completion records.
 */
#pragma once

#include <cstdint>
#include <functional>

#include "kdp/args.hh"
#include "kdp/kernel.hh"

#include "time.hh"

namespace dysel {
namespace sim {

/** Completion record of one launch. */
struct LaunchStats
{
    /** Virtual time the launch was submitted. */
    TimeNs submitTime = 0;

    /**
     * Earliest start stamp among the launch's work-groups (the
     * atomicMin'd `global_start_stamp` of the paper's Fig. 7).
     */
    TimeNs firstStamp = 0;

    /**
     * Latest end stamp among the launch's work-groups (recorded by
     * the last completing block in Fig. 7).
     */
    TimeNs lastStamp = 0;

    /** Work-groups executed. */
    std::uint64_t groups = 0;

    /** Sum of per-work-group busy durations (cycles actually used). */
    TimeNs busyTime = 0;

    /** Span from first start to last end; the profiling measurement. */
    TimeNs span() const { return lastStamp - firstStamp; }
};

/**
 * A request to run a contiguous range of one variant's work-groups.
 *
 * Work-group ids [firstGroup, firstGroup + numGroups) are executed;
 * the id the kernel observes is the real grid id, which is exactly
 * the paper's "block index offset" shifting (§3.3).
 */
struct Launch
{
    /** The variant to run (not owned; must outlive the launch). */
    const kdp::KernelVariant *variant = nullptr;

    /** Argument list (buffer slots may be sandbox rebinds). */
    kdp::KernelArgs args;

    /** First work-group id of this slice. */
    std::uint64_t firstGroup = 0;

    /** Number of work-groups in this slice. */
    std::uint64_t numGroups = 0;

    /**
     * Scheduling priority; higher runs first.  The DySel runtime
     * submits profiling slices with priority 1 and bulk execution
     * with priority 0 (§3.2's prioritized task groups).
     */
    int priority = 0;

    /**
     * Stream id.  Launches in the same stream execute in submission
     * order (CUDA semantics); different streams may overlap.
     */
    int stream = 0;

    /**
     * Run with the device to itself: no other launch's work-groups
     * may be resident while this one executes.  The DySel runtime
     * sets this for GPU profiling launches -- on real Kepler
     * hardware, concurrent kernels overlap only at their tails, so
     * each micro-profiling kernel effectively measures in isolation;
     * this is also why async DySel gets little eager overlap on GPUs
     * (paper §5.1).
     */
    bool exclusive = false;

    /** Invoked (at virtual completion time) when the slice finishes. */
    std::function<void(const LaunchStats &)> onComplete;
};

} // namespace sim
} // namespace dysel
