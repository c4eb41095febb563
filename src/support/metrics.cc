#include "metrics.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dysel {
namespace support {

namespace {

std::size_t
bucketIndex(double v)
{
    if (v < 1.0)
        return 0;
    const auto idx = static_cast<std::size_t>(std::floor(std::log2(v)));
    return idx >= Histogram::numBuckets ? Histogram::numBuckets - 1 : idx;
}

double
bitsToDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** Atomically apply min/max on a double stored as bits. */
template <typename Cmp>
void
atomicExtreme(std::atomic<std::uint64_t> &slot, double v, Cmp better)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (better(v, bitsToDouble(cur))
           && !slot.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                          std::memory_order_relaxed)) {
    }
}

void
atomicAdd(std::atomic<std::uint64_t> &slot, double v)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(
        cur, std::bit_cast<std::uint64_t>(bitsToDouble(cur) + v),
        std::memory_order_relaxed)) {
    }
}

} // namespace

void
Histogram::observe(double v)
{
    if (v < 0)
        v = 0;
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sumBits, v);
    atomicExtreme(minBits, v, [](double a, double b) { return a < b; });
    atomicExtreme(maxBits, v, [](double a, double b) { return a > b; });
    bucket_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return bitsToDouble(sumBits.load(std::memory_order_relaxed));
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double
Histogram::min() const
{
    return count() == 0
               ? 0.0
               : bitsToDouble(minBits.load(std::memory_order_relaxed));
}

double
Histogram::max() const
{
    return count() == 0
               ? 0.0
               : bitsToDouble(maxBits.load(std::memory_order_relaxed));
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    const auto target =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < numBuckets; ++i) {
        seen += bucket_[i].load(std::memory_order_relaxed);
        if (seen >= target && seen > 0) {
            // The bucket's upper bound 2^(i+1) can overshoot the
            // largest sample (one sample of 3 would report p50 = 4);
            // clamp to the observed max.
            return std::min(std::ldexp(1.0, static_cast<int>(i) + 1),
                            max());
        }
    }
    return max();
}

std::vector<std::uint64_t>
Histogram::buckets() const
{
    std::vector<std::uint64_t> out(numBuckets);
    for (std::size_t i = 0; i < numBuckets; ++i)
        out[i] = bucket_[i].load(std::memory_order_relaxed);
    return out;
}

std::string
MetricsRegistry::escapeLabelValue(const std::string &value)
{
    // Prometheus text format 0.0.4: inside a label value, backslash,
    // double quote, and newline must be escaped.  Escaping at
    // construction time keeps every stored metric name a valid label
    // set, so exporters never have to re-parse ambiguous raw values.
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
MetricsRegistry::labeled(const std::string &name, const std::string &key,
                         const std::string &value)
{
    return name + "{" + key + "=\"" + escapeLabelValue(value) + "\"}";
}

namespace {

/** Split `family{labels}` into its parts; labels may be empty. */
void
splitLabeled(const std::string &name, std::string &family,
             std::string &labels)
{
    const auto brace = name.find('{');
    if (brace == std::string::npos || name.back() != '}') {
        family = name;
        labels.clear();
        return;
    }
    family = name.substr(0, brace);
    labels = name.substr(brace + 1, name.size() - brace - 2);
}

/** Get-or-create @p name in @p metrics, registering @p help. */
template <typename Metric>
Metric &
getOrCreate(std::map<std::string, std::unique_ptr<Metric>> &metrics,
            std::map<std::string, std::string> &helps,
            const std::string &name, const char *help)
{
    auto &slot = metrics[name];
    if (!slot)
        slot = std::make_unique<Metric>();
    if (help) {
        std::string family, labels;
        splitLabeled(name, family, labels);
        helps.emplace(std::move(family), help);
    }
    return *slot;
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &name, const char *help)
{
    std::lock_guard<std::mutex> lock(mu);
    return getOrCreate(counters, helps, name, help);
}

Histogram &
MetricsRegistry::histogram(const std::string &name, const char *help)
{
    std::lock_guard<std::mutex> lock(mu);
    return getOrCreate(histograms, helps, name, help);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second->value();
}

std::string
MetricsRegistry::renderText() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream os;
    // One name-sorted pass over both maps: the output order is a pure
    // function of the metric names, independent of which kind a name
    // happens to be or the order metrics were created in.
    auto ci = counters.begin();
    auto hi = histograms.begin();
    auto emitHistogram = [&os](const std::string &name,
                               const Histogram &h) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "%s{count=%llu mean=%.1f p50=%.0f p90=%.0f "
                      "p95=%.0f p99=%.0f max=%.0f}\n",
                      name.c_str(), (unsigned long long)h.count(),
                      h.mean(), h.quantile(0.5), h.quantile(0.9),
                      h.quantile(0.95), h.quantile(0.99), h.max());
        os << buf;
    };
    while (ci != counters.end() || hi != histograms.end()) {
        if (hi == histograms.end()
            || (ci != counters.end() && ci->first <= hi->first)) {
            os << ci->first << ' ' << ci->second->value() << '\n';
            ++ci;
        } else {
            emitHistogram(hi->first, *hi->second);
            ++hi;
        }
    }
    return os.str();
}

Json
MetricsRegistry::renderJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    Json counterObj = Json::object();
    for (const auto &[name, c] : counters)
        counterObj.set(name, Json(c->value()));
    Json histObj = Json::object();
    for (const auto &[name, h] : histograms) {
        Json entry = Json::object();
        entry.set("count", Json(h->count()));
        entry.set("sum", Json(h->sum()));
        entry.set("mean", Json(h->mean()));
        entry.set("min", Json(h->min()));
        entry.set("max", Json(h->max()));
        entry.set("p50", Json(h->quantile(0.5)));
        entry.set("p90", Json(h->quantile(0.9)));
        entry.set("p95", Json(h->quantile(0.95)));
        entry.set("p99", Json(h->quantile(0.99)));
        histObj.set(name, std::move(entry));
    }
    Json root = Json::object();
    root.set("counters", std::move(counterObj));
    root.set("histograms", std::move(histObj));
    return root;
}

namespace {

/** Prometheus metric-name sanitization: [a-zA-Z0-9_:], '_' elsewhere. */
std::string
promName(const std::string &family)
{
    std::string out = family;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/** Render a double the way Prometheus expects ("+Inf"-free here). */
std::string
promNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::string
MetricsRegistry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream os;
    std::string lastFamily;
    auto typeLine = [&](const std::string &family, const char *type) {
        // One HELP + TYPE pair per family: labeled series of one
        // family (device="dev0", device="dev1") are adjacent in the
        // sorted map, so emitting on family change is enough.
        const std::string name = promName(family);
        if (name == lastFamily)
            return;
        lastFamily = name;
        const auto help = helps.find(family);
        os << "# HELP " << name << ' '
           << (help == helps.end() ? fallbackHelp : help->second.c_str())
           << '\n';
        os << "# TYPE " << name << ' ' << type << '\n';
    };

    for (const auto &[name, c] : counters) {
        std::string family, labels;
        splitLabeled(name, family, labels);
        typeLine(family, "counter");
        family = promName(family);
        os << family;
        if (!labels.empty())
            os << '{' << labels << '}';
        os << ' ' << c->value() << '\n';
    }

    lastFamily.clear();
    for (const auto &[name, h] : histograms) {
        std::string family, labels;
        splitLabeled(name, family, labels);
        typeLine(family, "histogram");
        family = promName(family);
        const auto buckets = h->buckets();
        // Cumulative counts at the power-of-two upper bounds, up to
        // the highest non-empty bucket, then the +Inf catch-all.
        std::size_t top = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i)
            if (buckets[i] > 0)
                top = i + 1;
        std::uint64_t cum = 0;
        auto bucketLine = [&](const std::string &le, std::uint64_t n) {
            os << family << "_bucket{";
            if (!labels.empty())
                os << labels << ',';
            os << "le=\"" << le << "\"} " << n << '\n';
        };
        for (std::size_t i = 0; i < top; ++i) {
            cum += buckets[i];
            bucketLine(promNumber(std::ldexp(1.0, static_cast<int>(i) + 1)),
                       cum);
        }
        bucketLine("+Inf", h->count());
        const std::string suffix =
            labels.empty() ? "" : "{" + labels + "}";
        os << family << "_sum" << suffix << ' ' << promNumber(h->sum())
           << '\n';
        os << family << "_count" << suffix << ' ' << h->count() << '\n';
    }
    return os.str();
}

} // namespace support
} // namespace dysel
