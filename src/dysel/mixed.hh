/**
 * @file
 * Mixed-version execution -- the paper's stated future work (§4.1):
 *
 *   "Note a mixed version that applies different pure versions on
 *    different partitions of computation could potentially outperform
 *    the 'oracle'. [...] For the mixed version, we consider it as the
 *    future work."
 *
 * This extension partitions the workload into segments and
 * micro-profiles the kernel pool *per segment*, so workloads whose
 * best variant changes across the data (e.g. a sparse matrix with a
 * dense region and a near-diagonal region) run each region with its
 * own winner.  Profiling stays productive: each variant's per-segment
 * slice contributes to the final output (fully-productive layout
 * within the segment).
 *
 * Limitations (deliberate, matching the base runtime's assumptions):
 * segments must be large enough for one safe-point slice per variant,
 * the mode is fully-productive (regular kernels -- per-segment
 * adaptation of irregular kernels would need per-segment sandboxes),
 * and orchestration is synchronous per segment (segments themselves
 * overlap freely on the device).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime.hh"

namespace dysel {
namespace runtime {

/** Result of one mixed-version launch. */
struct MixedReport
{
    std::string signature;

    /** Winning variant index per segment. */
    std::vector<int> segmentSelection;

    /** Per-segment profiling metrics: [segment][variant]. */
    std::vector<std::vector<sim::TimeNs>> segmentMetrics;

    sim::TimeNs startTime = 0;
    sim::TimeNs endTime = 0;
    std::uint64_t totalUnits = 0;
    std::uint64_t unitsPerSegment = 0;
    std::uint64_t profiledUnits = 0;

    /** True when at least two segments picked different variants. */
    bool heterogeneous() const;

    /** End-to-end virtual time of the call. */
    sim::TimeNs elapsed() const { return endTime - startTime; }
};

/**
 * Launch @p signature over @p total_units with per-segment variant
 * selection, the fallible entry point.
 *
 * @param rt         the runtime holding the kernel pool
 * @param signature  kernel to launch
 * @param total_units workload size
 * @param args       kernel arguments
 * @param segments   number of equal partitions (>= 1); reduced
 *                   automatically if segments are too small to
 *                   profile
 * @param report     filled with the per-segment selection on success
 *
 * Failure codes:
 *   NotFound            -- unknown signature
 *   FailedPrecondition  -- empty pool, or the workload is too small
 *                          to profile even one segment
 */
support::Status tryLaunchKernelMixed(Runtime &rt,
                                     const std::string &signature,
                                     std::uint64_t total_units,
                                     const kdp::KernelArgs &args,
                                     unsigned segments,
                                     MixedReport &report);

/**
 * Re-execute a workload with a previously profiled per-segment
 * selection (the mixed-mode analogue of the profiling activation
 * flag): iterative solvers profile segments once and reuse the
 * partitioned selection for the remaining iterations; the fallible
 * entry point.
 *
 * @param selection a report from tryLaunchKernelMixed on the same
 *                  signature and workload size
 *
 * Failure codes:
 *   NotFound         -- unknown signature
 *   InvalidArgument  -- @p selection does not match this signature /
 *                       workload size, or selects a variant outside
 *                       the registered pool
 */
support::Status tryLaunchKernelMixedCached(Runtime &rt,
                                           const std::string &signature,
                                           std::uint64_t total_units,
                                           const kdp::KernelArgs &args,
                                           const MixedReport &selection);

} // namespace runtime
} // namespace dysel
