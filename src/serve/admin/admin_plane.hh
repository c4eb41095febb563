/**
 * @file
 * Live introspection plane over a running DispatchService
 * (DESIGN §11).
 *
 * AdminPlane is transport-agnostic: handle(request) -> response over
 * the service's live registries, with no sockets anywhere -- the
 * HTTP/1.0 front in support/net plugs it into `dyseld --admin PORT`,
 * and tests drive it directly.  Endpoints:
 *
 *   /metrics            live Prometheus exposition
 *   /healthz            liveness: running flag + full health JSON
 *   /readyz             readiness: 503 while not running or every
 *                       breaker is open
 *   /debug/selections   per-key winner/EMA/quarantine/predicted JSON
 *                       plus the blacklist
 *   /debug/flight?worker=N   on-demand FlightRecorder dump (until
 *                       now only reachable via a failing job's
 *                       Status payload)
 *   /debug/trace?last=N tail of the trace ring as JSON events
 *   /debug/audit        selection-audit state (regret EMAs, totals)
 *   /debug/predictor    predictor state: attached, threshold,
 *                       calibration (the shadow hit rate),
 *                       training_examples, demotions -- the winners
 *                       themselves are the store's records
 *   /debug/peers        federation sync state: per-peer cursors,
 *                       incarnations, failures, lease table size
 *   /fed/...              federation wire protocol (delta/lease/info),
 *                       delegated to the attached fed::Replicator
 *   /                   endpoint index
 *
 * Every handler is a read-only snapshot: the plane never mutates the
 * service, so a wedged storm can be inspected without perturbing it.
 */
#pragma once

#include <map>
#include <string>

#include "serve/dispatch_service.hh"

namespace dysel {
namespace serve {
namespace admin {

/** One parsed admin request: a path plus decoded query parameters. */
struct AdminRequest
{
    std::string path; ///< e.g. "/debug/flight"
    std::map<std::string, std::string> query;
};

/** What handle() returns; transport-independent. */
struct AdminResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
};

/** The introspection plane. */
class AdminPlane
{
  public:
    /**
     * @p service must outlive the plane.  The predictor is optional
     * (nullptr renders /debug/predictor as {"attached": false}), as
     * is the federation replicator (nullptr renders /debug/peers as
     * {"attached": false} and 404s /fed/...).
     */
    explicit AdminPlane(DispatchService &service,
                        const predict::SelectionPredictor *predictor
                        = nullptr,
                        fed::Replicator *fed = nullptr);

    /** Serve one request (thread-safe, read-only). */
    AdminResponse handle(const AdminRequest &req) const;

    /** Convenience: parse "/path?k=v&k2=v2" and handle it. */
    AdminResponse handleTarget(const std::string &target) const;

    /** Split an HTTP target into path + decoded query map. */
    static AdminRequest parseTarget(const std::string &target);

  private:
    AdminResponse metricsPage() const;
    AdminResponse healthPage() const;
    AdminResponse readyPage() const;
    AdminResponse selectionsPage() const;
    AdminResponse flightPage(const AdminRequest &req) const;
    AdminResponse tracePage(const AdminRequest &req) const;
    AdminResponse auditPage() const;
    AdminResponse predictorPage() const;
    AdminResponse peersPage() const;
    AdminResponse indexPage() const;

    DispatchService &service_;
    const predict::SelectionPredictor *predictor_;
    fed::Replicator *fed_;
};

} // namespace admin
} // namespace serve
} // namespace dysel
