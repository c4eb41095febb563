/**
 * @file
 * One-job submission for the serving tests: many tests drive the
 * service a job at a time, so this wraps the single-element span
 * plumbing of DispatchService::submitMany().
 */
#pragma once

#include <span>

#include "serve/dispatch_service.hh"

namespace dysel {
namespace serve {

/** Submit @p spec alone through submitMany(); returns its handle. */
inline JobHandle
submitOne(DispatchService &svc, const JobSpec &spec)
{
    JobHandle handle;
    svc.submitMany(std::span<const JobSpec>(&spec, 1),
                   std::span<JobHandle>(&handle, 1));
    return handle;
}

} // namespace serve
} // namespace dysel
