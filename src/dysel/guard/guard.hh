/**
 * @file
 * The variant guard: functional validation of kernel variants during
 * micro-profiling.
 *
 * DySel's sandbox/swap profiling modes (paper §2.2) give every
 * non-default variant a private output space; the guard turns those
 * private copies into a verification stage, the way production
 * kernel-selection systems (EngineCL, kernel-tuning pipelines)
 * validate candidates against a reference before deployment:
 *
 *   (a) each variant's sandbox output is cross-checked against the
 *       reference variant's under a tolerance-aware comparator;
 *   (b) sandbox buffers carry trailing canary redzones, so a variant
 *       that writes past its output is caught red-handed;
 *   (c) a watchdog catches profiling slices that never complete (a
 *       hung variant is cancelled instead of stalling selection);
 *   (d) outputs are screened for NaN/Inf poisoning.
 *
 * A variant that trips any check is excluded from the running
 * selection, recorded in a per-variant health ledger, and -- after
 * strikeLimit strikes -- blacklisted.  The blacklist is mirrored into
 * SelectionStore v3 by the serving layer (keyed by signature, variant
 * and device fingerprint), so a misbehaving variant is never
 * re-served across restarts.
 *
 * Thread-safety: all non-static members take the ledger mutex; one
 * guard instance belongs to one Runtime, but tests and the serving
 * layer may inspect it from other threads.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kdp/buffer.hh"

namespace dysel {
namespace guard {

/** Which guard check a variant tripped. */
enum class CheckKind {
    Mismatch = 0, ///< output differs from the reference variant's
    Redzone,      ///< canary redzone overwritten (out-of-bounds write)
    NanInf,       ///< output poisoned with NaN or Inf
    Watchdog,     ///< profiling slice never completed
};

/** Stable lower-case name of @p kind ("mismatch", "redzone", ...). */
const char *checkKindName(CheckKind kind);

/** Guard tuning knobs. */
struct GuardConfig
{
    /** Master switch; a disabled guard never filters or checks. */
    bool enabled = false;

    /** Absolute tolerance of the float/double comparator. */
    double absTol = 1e-6;

    /** Relative tolerance of the float/double comparator. */
    double relTol = 1e-4;

    /** Canary elements appended to each sandbox output buffer. */
    std::uint64_t redzoneElems = 32;

    /**
     * Strikes (failed checks, across launches) before a variant is
     * blacklisted.  1 = zero tolerance.
     */
    unsigned strikeLimit = 2;
};

/** Health ledger entry of one (signature, variant). */
struct VariantHealth
{
    std::uint64_t passes = 0;     ///< clean validations
    std::uint64_t mismatches = 0; ///< Mismatch strikes
    std::uint64_t redzones = 0;   ///< Redzone strikes
    std::uint64_t nans = 0;       ///< NanInf strikes
    std::uint64_t watchdogs = 0;  ///< Watchdog strikes
    unsigned strikes = 0;         ///< total strikes
    bool blacklisted = false;
    std::string lastReason;       ///< check name of the latest strike
};

/** Canary byte pattern painted into redzones. */
constexpr unsigned char kCanaryByte = 0xcb;

/**
 * The guard: health ledger, blacklist, and the buffer checks.
 */
class VariantGuard
{
  public:
    explicit VariantGuard(GuardConfig cfg = GuardConfig());

    const GuardConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled; }

    /**
     * Invoked (with the ledger mutex released) when a variant's
     * strikes reach strikeLimit; the serving layer hooks this to
     * persist the blacklist entry into the selection store.  The
     * reason is the check name of the final strike.
     */
    using BlacklistObserver =
        std::function<void(const std::string &signature,
                           const std::string &variant,
                           const std::string &reason)>;
    void setBlacklistObserver(BlacklistObserver obs);

    /**
     * Invoked (with the ledger mutex released) on every strike, before
     * the blacklist observer of a strike that blacklists; the serving
     * layer counts and traces each detection from it, so a strike is
     * accounted where it happens even when its launch then fails.
     */
    using StrikeObserver =
        std::function<void(const std::string &signature,
                           const std::string &variant, CheckKind check)>;
    void setStrikeObserver(StrikeObserver obs);

    /**
     * Seed a blacklist entry from an external source (a loaded
     * selection store).  Idempotent; does not fire the observer (the
     * source already knows).
     */
    void blacklist(const std::string &signature,
                   const std::string &variant, const std::string &reason);

    /** Whether (signature, variant) is blacklisted. */
    bool isBlacklisted(const std::string &signature,
                       const std::string &variant) const;

    /**
     * Record a failed check against (signature, variant) and fire the
     * strike observer.  Returns true when this strike crossed
     * strikeLimit and blacklisted the variant (the blacklist observer
     * fires exactly once, on the transition).
     */
    bool strike(const std::string &signature, const std::string &variant,
                CheckKind check);

    /** Record a clean validation. */
    void pass(const std::string &signature, const std::string &variant);

    /** Ledger entry of (signature, variant), if any. */
    std::optional<VariantHealth>
    health(const std::string &signature,
           const std::string &variant) const;

    /** Total strikes recorded for @p check, across all variants. */
    std::uint64_t checkCount(CheckKind check) const;

    /** Variants blacklisted by strikes (excludes seeded entries). */
    std::uint64_t blacklistCount() const;

    // ---- Buffer checks ----------------------------------------------

    /** Paint @p buf's redzone with the canary pattern. */
    static void paintRedzone(kdp::BufferBase &buf);

    /** Whether @p buf's redzone still holds the canary pattern. */
    static bool redzoneIntact(const kdp::BufferBase &buf);

    /**
     * Whether @p buf's data region contains a NaN or Inf.  Only
     * meaningful for float/double buffers; other element types never
     * report poisoning.
     */
    static bool hasNanOrInf(const kdp::BufferBase &buf);

    /**
     * Whether @p cand's data region matches @p ref's under the
     * configured tolerances.  float/double buffers compare
     * element-wise with |a-b| <= absTol + relTol * max(|a|,|b|)
     * (different variants may legitimately reorder float reductions);
     * every other element type compares byte-exact.  Buffers of
     * different types or data sizes never match.
     */
    bool outputsMatch(const kdp::BufferBase &ref,
                      const kdp::BufferBase &cand) const;

    /**
     * Copy @p src's data region into @p dst (the redzone-aware
     * replacement for BufferBase::copyFrom in the swap path: the
     * winner's padded clone is wider than the destination).  Types
     * must match and src must carry at least dst.size() data
     * elements.
     */
    static void copyData(kdp::BufferBase &dst,
                         const kdp::BufferBase &src);

  private:
    using LedgerKey = std::pair<std::string, std::string>;

    mutable std::mutex mu;
    GuardConfig cfg_;
    std::map<LedgerKey, VariantHealth> ledger;
    std::array<std::uint64_t, 4> checkCounts{};
    std::uint64_t blacklists = 0;
    BlacklistObserver observer;
    StrikeObserver strikeObserver;
};

} // namespace guard
} // namespace dysel
