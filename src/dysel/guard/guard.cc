#include "guard.hh"

#include <cmath>
#include <cstring>

#include "support/logging.hh"

namespace dysel {
namespace guard {

const char *
checkKindName(CheckKind kind)
{
    switch (kind) {
      case CheckKind::Mismatch: return "mismatch";
      case CheckKind::Redzone: return "redzone";
      case CheckKind::NanInf: return "nan";
      case CheckKind::Watchdog: return "watchdog";
    }
    return "?";
}

VariantGuard::VariantGuard(GuardConfig cfg) : cfg_(cfg) {}

void
VariantGuard::setBlacklistObserver(BlacklistObserver obs)
{
    std::lock_guard<std::mutex> lock(mu);
    observer = std::move(obs);
}

void
VariantGuard::setStrikeObserver(StrikeObserver obs)
{
    std::lock_guard<std::mutex> lock(mu);
    strikeObserver = std::move(obs);
}

void
VariantGuard::blacklist(const std::string &signature,
                        const std::string &variant,
                        const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mu);
    VariantHealth &h = ledger[LedgerKey{signature, variant}];
    if (!h.blacklisted) {
        h.blacklisted = true;
        h.lastReason = reason;
    }
}

bool
VariantGuard::isBlacklisted(const std::string &signature,
                            const std::string &variant) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = ledger.find(LedgerKey{signature, variant});
    return it != ledger.end() && it->second.blacklisted;
}

bool
VariantGuard::strike(const std::string &signature,
                     const std::string &variant, CheckKind check)
{
    StrikeObserver onStrike;
    BlacklistObserver notify;
    bool struckOut = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        VariantHealth &h = ledger[LedgerKey{signature, variant}];
        switch (check) {
          case CheckKind::Mismatch: h.mismatches++; break;
          case CheckKind::Redzone: h.redzones++; break;
          case CheckKind::NanInf: h.nans++; break;
          case CheckKind::Watchdog: h.watchdogs++; break;
        }
        checkCounts[static_cast<std::size_t>(check)]++;
        h.strikes++;
        h.lastReason = checkKindName(check);
        onStrike = strikeObserver;
        if (!h.blacklisted && h.strikes >= cfg_.strikeLimit) {
            h.blacklisted = true;
            blacklists++;
            notify = observer;
            struckOut = true;
        }
    }
    // Observers run unlocked: they typically write the selection
    // store or the service's telemetry, which take their own mutexes.
    if (onStrike)
        onStrike(signature, variant, check);
    if (notify)
        notify(signature, variant, checkKindName(check));
    return struckOut;
}

void
VariantGuard::pass(const std::string &signature,
                   const std::string &variant)
{
    std::lock_guard<std::mutex> lock(mu);
    ledger[LedgerKey{signature, variant}].passes++;
}

std::optional<VariantHealth>
VariantGuard::health(const std::string &signature,
                     const std::string &variant) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = ledger.find(LedgerKey{signature, variant});
    if (it == ledger.end())
        return std::nullopt;
    return it->second;
}

std::uint64_t
VariantGuard::checkCount(CheckKind check) const
{
    std::lock_guard<std::mutex> lock(mu);
    return checkCounts[static_cast<std::size_t>(check)];
}

std::uint64_t
VariantGuard::blacklistCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return blacklists;
}

void
VariantGuard::paintRedzone(kdp::BufferBase &buf)
{
    auto *bytes = static_cast<unsigned char *>(buf.rawData());
    std::memset(bytes + buf.dataElems() * buf.elemSize(), kCanaryByte,
                buf.redzone() * buf.elemSize());
}

bool
VariantGuard::redzoneIntact(const kdp::BufferBase &buf)
{
    const auto *bytes = static_cast<const unsigned char *>(buf.rawData());
    const std::uint64_t from = buf.dataElems() * buf.elemSize();
    const std::uint64_t to = buf.size() * buf.elemSize();
    for (std::uint64_t i = from; i < to; ++i)
        if (bytes[i] != kCanaryByte)
            return false;
    return true;
}

namespace {

template <typename T>
bool
anyNanOrInf(const T *v, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        if (!std::isfinite(v[i]))
            return true;
    return false;
}

template <typename T>
bool
withinTolerance(const T *a, const T *b, std::uint64_t n, double abs_tol,
                double rel_tol)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(a[i]);
        const double y = static_cast<double>(b[i]);
        if (std::isnan(x) && std::isnan(y))
            continue; // both poisoned identically; NaN screen's job
        const double bound =
            abs_tol + rel_tol * std::max(std::fabs(x), std::fabs(y));
        if (!(std::fabs(x - y) <= bound))
            return false;
    }
    return true;
}

} // namespace

bool
VariantGuard::hasNanOrInf(const kdp::BufferBase &buf)
{
    const std::uint64_t n = buf.dataElems();
    if (buf.elemType() == typeid(float))
        return anyNanOrInf(static_cast<const float *>(buf.rawData()), n);
    if (buf.elemType() == typeid(double))
        return anyNanOrInf(static_cast<const double *>(buf.rawData()), n);
    return false;
}

bool
VariantGuard::outputsMatch(const kdp::BufferBase &ref,
                           const kdp::BufferBase &cand) const
{
    if (ref.elemType() != cand.elemType()
        || ref.dataElems() != cand.dataElems())
        return false;
    const std::uint64_t n = ref.dataElems();
    if (ref.elemType() == typeid(float)) {
        return withinTolerance(static_cast<const float *>(ref.rawData()),
                               static_cast<const float *>(cand.rawData()),
                               n, cfg_.absTol, cfg_.relTol);
    }
    if (ref.elemType() == typeid(double)) {
        return withinTolerance(
            static_cast<const double *>(ref.rawData()),
            static_cast<const double *>(cand.rawData()), n, cfg_.absTol,
            cfg_.relTol);
    }
    return std::memcmp(ref.rawData(), cand.rawData(),
                       n * ref.elemSize()) == 0;
}

void
VariantGuard::copyData(kdp::BufferBase &dst, const kdp::BufferBase &src)
{
    if (dst.elemType() != src.elemType()
        || src.dataElems() < dst.size())
        support::panic("guard::copyData type/size mismatch (%s <- %s)",
                       dst.name().c_str(), src.name().c_str());
    std::memcpy(dst.rawData(), src.rawData(),
                dst.size() * dst.elemSize());
}

} // namespace guard
} // namespace dysel
