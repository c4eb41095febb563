/**
 * @file
 * Per-worker flight recorder: a fixed-capacity ring of the most
 * recent phase records, dumped when a job fails -- or on demand by
 * the admin plane's /debug/flight endpoint.
 *
 * Each dispatch-service worker owns one recorder and is its only
 * writer; failure dumps happen on the same worker thread, but the
 * admin plane snapshots the ring from its serving thread while the
 * worker keeps recording.  A plain mutex guards the ring for that:
 * the lock is uncontended in steady state (admin reads are rare), so
 * recording stays a ring-slot assignment plus an uncontended lock --
 * still cheap enough for the hot dispatch path.  Unlike the Tracer
 * it is always on, and the bound means a long-lived service never
 * grows it.  When a job dies, the dump shows the last `capacity`
 * things its worker did -- device, phase, and detail -- which is
 * exactly the "where did it die" evidence the Status payload carries
 * back to the caller.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace dysel {
namespace support {
namespace tracing {

/** Bounded ring of phase records (one writer, any-thread readers). */
class FlightRecorder
{
  public:
    /** One recorded phase transition. */
    struct Entry
    {
        std::uint64_t ts = 0; ///< virtual ns (owner device clock)
        std::uint64_t job = 0; ///< job id; 0 when not job-scoped
        std::string phase;    ///< e.g. "claim", "profile", "launch"
        std::string detail;   ///< free-form context (device, status)
    };

    explicit FlightRecorder(std::size_t capacity = 64)
        : ring(capacity == 0 ? 1 : capacity)
    {
    }

    /** Drop all records and resize the ring (single-threaded setup). */
    void reset(std::size_t capacity)
    {
        std::lock_guard<std::mutex> lock(mu);
        ring.assign(capacity == 0 ? 1 : capacity, Entry{});
        written = 0;
    }

    std::size_t capacity() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return ring.size();
    }

    /** Total records ever written (>= capacity once wrapped). */
    std::uint64_t recorded() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return written;
    }

    /**
     * Append one record, overwriting the oldest once full.  The text
     * is copied into the slot's strings, whose capacity is reused, so
     * a warm ring records without allocating.
     */
    void record(std::uint64_t ts, std::uint64_t job, std::string_view phase,
                std::string_view detail = {})
    {
        std::lock_guard<std::mutex> lock(mu);
        Entry &slot = ring[written % ring.size()];
        slot.ts = ts;
        slot.job = job;
        slot.phase.assign(phase);
        slot.detail.assign(detail);
        written++;
    }

    /** The retained records, oldest first. */
    std::vector<Entry> snapshot() const
    {
        std::lock_guard<std::mutex> lock(mu);
        std::vector<Entry> out;
        const std::uint64_t n =
            written < ring.size() ? written : ring.size();
        out.reserve(n);
        const std::uint64_t first = written - n;
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(ring[(first + i) % ring.size()]);
        return out;
    }

    /**
     * Human-readable dump, oldest first, one record per line:
     *   t=<ns> job=<id> phase=<phase> <detail>
     */
    std::string dump() const
    {
        const std::uint64_t total = recorded();
        const std::vector<Entry> entries = snapshot();
        std::ostringstream os;
        os << "flight recorder (" << total << " recorded, last "
           << entries.size() << "):\n";
        for (const Entry &e : entries) {
            os << "  t=" << e.ts;
            if (e.job != 0)
                os << " job=" << e.job;
            os << " phase=" << e.phase;
            if (!e.detail.empty())
                os << ' ' << e.detail;
            os << '\n';
        }
        return os.str();
    }

  private:
    mutable std::mutex mu;
    std::vector<Entry> ring;
    std::uint64_t written = 0;
};

} // namespace tracing
} // namespace support
} // namespace dysel
