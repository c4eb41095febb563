/**
 * @file
 * Serving-layer metrics: named counters and log-scale latency
 * histograms with text and JSON export.
 *
 * Counters and histogram cells are atomics, so recording from the
 * dispatch-service worker threads is lock-free; the registry map
 * itself is mutex-protected (get-or-create only).  Handles returned
 * by counter()/histogram() stay valid for the registry's lifetime.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json.hh"

namespace dysel {
namespace support {

/** A monotonically increasing counter. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A histogram over non-negative samples with power-of-two buckets:
 * bucket i counts samples in [2^i, 2^(i+1)) (bucket 0 additionally
 * holds samples < 1).  Good enough resolution for latencies while
 * keeping observation O(1) and allocation-free.
 */
class Histogram
{
  public:
    static constexpr std::size_t numBuckets = 64;

    /** Record one sample (negative samples clamp to 0). */
    void observe(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const;
    double mean() const;
    double min() const;
    double max() const;

    /**
     * Approximate quantile (bucket upper bound, clamped to the
     * observed max so a sparse histogram never reports a quantile
     * beyond its largest sample); q in [0,1].  0 for an empty
     * histogram.
     */
    double quantile(double q) const;

    /** Per-bucket counts (index i covers [2^i, 2^(i+1))). */
    std::vector<std::uint64_t> buckets() const;

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumBits{0};  ///< double stored as bits
    std::atomic<std::uint64_t> minBits{0x7ff0000000000000ull}; ///< +inf
    std::atomic<std::uint64_t> maxBits{0xfff0000000000000ull}; ///< -inf
    std::atomic<std::uint64_t> bucket_[numBuckets] = {};
};

/**
 * Named metrics, created on first use.  Names are free-form dotted
 * paths like "store.hit"; a per-instance breakdown appends a label
 * suffix built with labeled(), e.g. `device.jobs{device="dev0"}`
 * (see DESIGN §7 for the naming scheme).
 */
class MetricsRegistry
{
  public:
    /**
     * Canonical labeled metric name: `name{key="value"}`.  All
     * per-instance metrics (per device, per pass) use this one
     * suffix form so exporters can split name and labels
     * mechanically.  The value is escaped per the Prometheus text
     * format (backslash, double quote, newline), so hostile device
     * names can never corrupt an exposition line.
     */
    static std::string labeled(const std::string &name,
                               const std::string &key,
                               const std::string &value);

    /** Prometheus 0.0.4 label-value escaping (`\\`, `\"`, `\n`). */
    static std::string escapeLabelValue(const std::string &value);

    /**
     * Get or create the counter named @p name.  A non-null @p help
     * becomes the HELP text of the name's family (the part before any
     * `{labels}` suffix) unless the family already has one.
     */
    Counter &counter(const std::string &name, const char *help = nullptr);

    /** Get or create the histogram named @p name (see counter()). */
    Histogram &histogram(const std::string &name,
                         const char *help = nullptr);

    /** Value of a counter; 0 when it does not exist. */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Plain-text export, one metric per line in deterministic
     * name-sorted order (counters and histograms interleaved by
     * name, not segregated by kind):
     *   name value
     *   name{count,mean,p50,p90,p95,p99,max}  for histograms
     */
    std::string renderText() const;

    /** JSON export: {"counters": {...}, "histograms": {...}}. */
    Json renderJson() const;

    /** HELP line of a family registered without help text. */
    static constexpr const char *fallbackHelp =
        "Metric registered without help text.";

    /**
     * Prometheus text exposition (version 0.0.4): every family gets
     * a `# HELP` (its registered text, else fallbackHelp) and a
     * `# TYPE` line.  Metric names are
     * sanitized ('.' and other illegal characters become '_'); a
     * `{key="value"}` suffix built by labeled() becomes a real
     * Prometheus label set.  Counters render as a single sample,
     * histograms as cumulative `_bucket{le="..."}` samples over the
     * power-of-two bucket bounds plus `_sum` and `_count`.  Output
     * order is deterministic (name-sorted).
     */
    std::string renderPrometheus() const;

  private:
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    /** Family name -> HELP text, as registered. */
    std::map<std::string, std::string> helps;
};

} // namespace support
} // namespace dysel
