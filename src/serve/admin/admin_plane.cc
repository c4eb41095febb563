#include "admin_plane.hh"

#include <algorithm>
#include <cstdlib>

#include "dysel/fed/replicator.hh"
#include "dysel/predict/predictor.hh"
#include "support/json.hh"
#include "support/net/http.hh"
#include "support/tracing/tracer.hh"

namespace dysel {
namespace serve {
namespace admin {

using support::Json;

namespace {

/** Decode %XX and '+' in a query component (best-effort). */
std::string
urlDecode(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '+') {
            out.push_back(' ');
        } else if (s[i] == '%' && i + 2 < s.size()) {
            const std::string hex = s.substr(i + 1, 2);
            char *end = nullptr;
            const long v = std::strtol(hex.c_str(), &end, 16);
            if (end && *end == '\0') {
                out.push_back(static_cast<char>(v));
                i += 2;
            } else {
                out.push_back('%');
            }
        } else {
            out.push_back(s[i]);
        }
    }
    return out;
}

AdminResponse
jsonError(int status, const std::string &message)
{
    AdminResponse resp;
    resp.status = status;
    Json j = Json::object();
    j.set("error", message);
    resp.body = j.dump(2) + "\n";
    return resp;
}

Json
deviceJson(const DispatchService::DeviceHealth &d)
{
    Json j = Json::object();
    j.set("index", d.index);
    j.set("name", d.name);
    j.set("fingerprint", d.fingerprint);
    j.set("queue_depth", static_cast<std::uint64_t>(d.queueDepth));
    j.set("load", d.load);
    j.set("breaker_open", d.breakerOpen);
    j.set("breaker_cooldown_left", d.breakerCooldownLeft);
    j.set("consec_failures", d.consecFailures);
    j.set("clock_ns", d.clockNs);
    return j;
}

Json
healthJson(const DispatchService::ServiceHealth &h)
{
    Json j = Json::object();
    j.set("running", h.running);
    j.set("in_flight", h.inFlight);
    j.set("any_breaker_open", h.anyBreakerOpen());
    Json devices = Json::array();
    for (const auto &d : h.devices)
        devices.push(deviceJson(d));
    j.set("devices", std::move(devices));
    return j;
}

} // namespace

AdminPlane::AdminPlane(DispatchService &service,
                       const predict::SelectionPredictor *predictor,
                       fed::Replicator *fed)
    : service_(service), predictor_(predictor), fed_(fed)
{}

AdminRequest
AdminPlane::parseTarget(const std::string &target)
{
    AdminRequest req;
    const auto qpos = target.find('?');
    req.path = target.substr(0, qpos);
    if (qpos == std::string::npos)
        return req;
    std::string rest = target.substr(qpos + 1);
    std::size_t start = 0;
    while (start <= rest.size()) {
        auto amp = rest.find('&', start);
        if (amp == std::string::npos)
            amp = rest.size();
        const std::string pair = rest.substr(start, amp - start);
        if (!pair.empty()) {
            const auto eq = pair.find('=');
            if (eq == std::string::npos)
                req.query[urlDecode(pair)] = "";
            else
                req.query[urlDecode(pair.substr(0, eq))] =
                    urlDecode(pair.substr(eq + 1));
        }
        start = amp + 1;
    }
    return req;
}

AdminResponse
AdminPlane::handleTarget(const std::string &target) const
{
    return handle(parseTarget(target));
}

AdminResponse
AdminPlane::handle(const AdminRequest &req) const
{
    if (req.path == "/metrics")
        return metricsPage();
    if (req.path == "/healthz")
        return healthPage();
    if (req.path == "/readyz")
        return readyPage();
    if (req.path == "/debug/selections")
        return selectionsPage();
    if (req.path == "/debug/flight")
        return flightPage(req);
    if (req.path == "/debug/trace")
        return tracePage(req);
    if (req.path == "/debug/audit")
        return auditPage();
    if (req.path == "/debug/predictor")
        return predictorPage();
    if (req.path == "/debug/peers")
        return peersPage();
    if (req.path.rfind("/fed/", 0) == 0) {
        if (!fed_)
            return jsonError(404, "federation not attached");
        // The replicator parses its own query string; rebuild the
        // target from the decoded pairs.
        std::string target = req.path;
        char sep = '?';
        for (const auto &[k, v] : req.query) {
            target += sep + support::net::urlEncode(k) + "="
                      + support::net::urlEncode(v);
            sep = '&';
        }
        const auto reply = fed_->handleFed(target);
        AdminResponse resp;
        resp.status = reply.status;
        resp.body = reply.body;
        return resp;
    }
    if (req.path == "/" || req.path.empty())
        return indexPage();
    return jsonError(404, "no such endpoint: " + req.path);
}

AdminResponse
AdminPlane::metricsPage() const
{
    AdminResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = service_.metrics().renderPrometheus();
    return resp;
}

AdminResponse
AdminPlane::healthPage() const
{
    AdminResponse resp;
    const auto h = service_.health();
    Json j = healthJson(h);
    j.set("status", h.running ? "ok" : "stopped");
    resp.body = j.dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::readyPage() const
{
    const auto h = service_.health();
    // Ready means: accepting work, and at least one shard can serve
    // it.  A single open breaker only degrades capacity; every
    // breaker open means nothing can run.
    bool allOpen = !h.devices.empty();
    for (const auto &d : h.devices)
        if (!d.breakerOpen)
            allOpen = false;
    const bool ready = h.running && !allOpen;
    AdminResponse resp;
    resp.status = ready ? 200 : 503;
    Json j = Json::object();
    j.set("ready", ready);
    j.set("running", h.running);
    j.set("all_breakers_open", allOpen);
    j.set("in_flight", h.inFlight);
    resp.body = j.dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::selectionsPage() const
{
    const auto &st = service_.selectionStore();
    Json arr = Json::array();
    for (const auto &rec : st.records()) {
        Json j = Json::object();
        j.set("signature", rec.signature);
        j.set("device", rec.device);
        j.set("bucket", rec.bucket);
        j.set("selected", rec.selected);
        j.set("selected_name", rec.selectedName);
        j.set("launches", rec.launches);
        j.set("profiled_launches", rec.profiledLaunches);
        j.set("confidence", rec.confidence);
        j.set("unit_time_ns", rec.unitTimeNs);
        j.set("valid", rec.valid);
        j.set("quarantined_variant", rec.quarantinedVariant);
        j.set("cooldown_left", rec.cooldownLeft);
        j.set("quarantines", rec.quarantines);
        j.set("predicted", rec.predicted);
        j.set("predicted_confidence", rec.predictedConfidence);
        Json profiles = Json::array();
        for (const auto &p : rec.profiles) {
            Json pj = Json::object();
            pj.set("name", p.name);
            pj.set("metric_ns", p.metricNs);
            pj.set("units", p.units);
            profiles.push(std::move(pj));
        }
        j.set("profiles", std::move(profiles));
        arr.push(std::move(j));
    }
    Json bl = Json::array();
    for (const auto &e : st.blacklistEntries()) {
        Json j = Json::object();
        j.set("signature", e.signature);
        j.set("variant", e.variant);
        j.set("device", e.device);
        j.set("reason", e.reason);
        bl.push(std::move(j));
    }
    Json root = Json::object();
    root.set("records", std::move(arr));
    root.set("blacklist", std::move(bl));
    AdminResponse resp;
    resp.body = root.dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::flightPage(const AdminRequest &req) const
{
    const auto it = req.query.find("worker");
    if (it == req.query.end())
        return jsonError(400, "missing ?worker=N");
    char *end = nullptr;
    const unsigned long idx = std::strtoul(it->second.c_str(), &end, 10);
    if (!end || *end != '\0' || it->second.empty())
        return jsonError(400, "bad worker index: " + it->second);
    if (idx >= service_.deviceCount())
        return jsonError(404, "worker " + it->second
                                  + " out of range (devices: "
                                  + std::to_string(service_.deviceCount())
                                  + ")");
    AdminResponse resp;
    resp.contentType = "text/plain; charset=utf-8";
    resp.body = service_.flightDump(static_cast<unsigned>(idx));
    if (resp.body.empty())
        resp.body = "(flight recorder empty)\n";
    return resp;
}

AdminResponse
AdminPlane::tracePage(const AdminRequest &req) const
{
    std::size_t last = 64;
    const auto it = req.query.find("last");
    if (it != req.query.end()) {
        char *end = nullptr;
        const unsigned long n = std::strtoul(it->second.c_str(), &end, 10);
        if (!end || *end != '\0' || it->second.empty())
            return jsonError(400, "bad last count: " + it->second);
        last = static_cast<std::size_t>(n);
    }
    const auto events = service_.tracer().snapshot();
    const std::size_t begin =
        events.size() > last ? events.size() - last : 0;
    Json arr = Json::array();
    for (std::size_t i = begin; i < events.size(); ++i) {
        const auto &e = events[i];
        Json j = Json::object();
        j.set("ph", support::tracing::phaseName(e.phase));
        j.set("name", e.name);
        j.set("cat", e.category);
        j.set("ts_ns", e.ts);
        j.set("dur_ns", e.dur);
        j.set("tid", e.tid);
        j.set("cid", e.correlation);
        Json args = Json::object();
        for (const auto &kv : e.args)
            args.set(kv.first, kv.second);
        j.set("args", std::move(args));
        arr.push(std::move(j));
    }
    Json root = Json::object();
    root.set("total_events", static_cast<std::uint64_t>(events.size()));
    root.set("returned", static_cast<std::uint64_t>(events.size() - begin));
    root.set("events", std::move(arr));
    AdminResponse resp;
    resp.body = root.dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::auditPage() const
{
    AdminResponse resp;
    const auto *aud = service_.auditor();
    if (!aud) {
        Json j = Json::object();
        j.set("enabled", false);
        resp.body = j.dump(2) + "\n";
        return resp;
    }
    resp.body = aud->toJson().dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::predictorPage() const
{
    AdminResponse resp;
    Json j = Json::object();
    if (!predictor_) {
        j.set("attached", false);
        resp.body = j.dump(2) + "\n";
        return resp;
    }
    j.set("attached", true);
    j.set("threshold", predictor_->config().threshold);
    j.set("calibration", predictor_->calibration());
    j.set("training_examples",
          static_cast<std::uint64_t>(predictor_->trainingExamples()));
    j.set("demotions", static_cast<std::uint64_t>(predictor_->demotions()));
    resp.body = j.dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::peersPage() const
{
    AdminResponse resp;
    if (!fed_) {
        Json j = Json::object();
        j.set("attached", false);
        resp.body = j.dump(2) + "\n";
        return resp;
    }
    resp.body = fed_->peersJson().dump(2) + "\n";
    return resp;
}

AdminResponse
AdminPlane::indexPage() const
{
    Json eps = Json::array();
    for (const char *p :
         {"/metrics", "/healthz", "/readyz", "/debug/selections",
          "/debug/flight?worker=N", "/debug/trace?last=N",
          "/debug/audit", "/debug/predictor", "/debug/peers"})
        eps.push(p);
    Json j = Json::object();
    j.set("service", "dysel admin plane");
    j.set("endpoints", std::move(eps));
    AdminResponse resp;
    resp.body = j.dump(2) + "\n";
    return resp;
}

} // namespace admin
} // namespace serve
} // namespace dysel
