/**
 * @file
 * Tests of the selection-federation layer (DESIGN §13): the
 * replicated SelectionStore with its delta-sync protocol.
 *
 * The suite climbs from transport to fleet:
 *
 *   - transport: the httpGet deadline against a stalled server, the
 *     query-string codec;
 *   - protocol: delta sync over real loopback HTTP, redelivery
 *     idempotence, the incarnation handshake that turns a replica
 *     crash-restart into a full resync;
 *   - ownership: rendezvous hashing is deterministic and covers the
 *     fleet;
 *   - leases: the owner-side grant/wait/record/expiry state machine
 *     and the follower's bounded fallback when the owner is dead;
 *   - convergence: randomized writes under randomized partitions
 *     heal to byte-identical stores once sync resumes;
 *   - the acceptance storm: three full replicas (store + replicator +
 *     HTTP front + dispatch service) under concurrent load profile
 *     every key exactly once fleet-wide, serve nearly everything
 *     warm, and drain to byte-identical stores.
 *
 * Everything binds ephemeral loopback ports; nothing here touches
 * the network proper or another process.
 */
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include "dysel/fed/ownership.hh"
#include "dysel/fed/replicator.hh"
#include "dysel/store/selection_store.hh"
#include "serve/dispatch_service.hh"
#include "serve/loadgen.hh"
#include "sim/cpu/cpu_device.hh"
#include "submit_one.hh"
#include "support/metrics.hh"
#include "support/net/http.hh"

using namespace dysel;
namespace net = dysel::support::net;

namespace {

constexpr const char *kDev = "cpu/test-device/c8@3.60GHz";

/** A synthetic profiled launch report with two variants. */
runtime::LaunchReport
profiledReport(const std::string &sig, std::uint64_t units,
               int selected = 1)
{
    runtime::LaunchReport r;
    r.signature = sig;
    r.profiled = true;
    r.totalUnits = units;
    r.profiledUnits = 256;
    r.selected = selected;
    r.profiles.resize(2);
    r.profiles[0] = {"slow", 4000, 4200, 3900, 128};
    r.profiles[1] = {"fast", 1000, 1100, 950, 128};
    r.selectedName = r.profiles[static_cast<std::size_t>(selected)].name;
    return r;
}

/**
 * One in-process replica: a store, its HTTP front, and (once the
 * fleet's ports are known) a replicator.  The handler indirects
 * through rep under a lock so the crash-restart test can swap the
 * replicator while peers keep pulling.
 */
struct Node
{
    store::SelectionStore store;
    net::HttpServer http;
    std::unique_ptr<fed::Replicator> rep;
    std::mutex repMu;

    bool listen()
    {
        return http.start(0,
                          [this](const net::HttpRequest &req) {
                              net::HttpResponse out;
                              std::lock_guard<std::mutex> lock(repMu);
                              if (!rep) {
                                  out.status = 503;
                                  out.body = "starting\n";
                                  return out;
                              }
                              const auto r = rep->handleFed(req.target);
                              out.status = r.status;
                              out.contentType = "application/json";
                              out.body = r.body;
                              return out;
                          })
            .ok();
    }

    void attach(std::uint32_t replica, std::uint32_t fleetSize,
                const std::vector<std::uint16_t> &ports,
                int syncIntervalMs = 10)
    {
        fed::ReplicatorConfig cfg;
        cfg.replica = replica;
        cfg.fleetSize = fleetSize;
        cfg.syncIntervalMs = syncIntervalMs;
        cfg.leasePollMs = 2;
        for (std::uint32_t p = 0; p < ports.size(); ++p)
            if (p != replica)
                cfg.peers.push_back("127.0.0.1:"
                                    + std::to_string(ports[p]));
        std::lock_guard<std::mutex> lock(repMu);
        rep = std::make_unique<fed::Replicator>(store, cfg);
    }

    std::string dump() const { return store.toJson().dump(0); }
};

/** A variant writing u -> u into buffer 0 for units < arg 1. */
kdp::KernelVariant
copyKernel(const char *name, std::uint64_t flopsPerUnit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = 8;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [flopsPerUnit](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        const std::uint64_t u = g.unitBase();
        if (u >= units)
            return;
        const auto lane = static_cast<std::uint32_t>(u % 8);
        g.store(out, u, static_cast<std::int32_t>(u), lane);
        g.flops(lane, flopsPerUnit);
    };
    return v;
}

/** Bring up @p n listening nodes and wire them into a full mesh. */
std::vector<std::unique_ptr<Node>>
makeFleet(std::uint32_t n, int syncIntervalMs = 10)
{
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<std::uint16_t> ports;
    for (std::uint32_t i = 0; i < n; ++i) {
        nodes.push_back(std::make_unique<Node>());
        EXPECT_TRUE(nodes.back()->listen());
        ports.push_back(nodes.back()->http.port());
    }
    for (std::uint32_t i = 0; i < n; ++i)
        nodes[i]->attach(i, n, ports, syncIntervalMs);
    return nodes;
}

} // namespace

// ---------------------------------------------------------------
// Transport
// ---------------------------------------------------------------

TEST(FedTransport, StalledServerTripsTypedDeadline)
{
    // A listener that backlogs the connection but never serves it:
    // the client must come back with DEADLINE_EXCEEDED in bounded
    // time, not block on the read forever.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 4), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const std::uint16_t port = ntohs(addr.sin_port);

    std::string body;
    int status = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto st =
        net::httpGet("127.0.0.1", port, "/fed/info", body, status, 150);
    const auto elapsedMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(st.code(), support::StatusCode::DeadlineExceeded)
        << st.toString();
    EXPECT_GE(elapsedMs, 100.0);
    EXPECT_LT(elapsedMs, 2000.0); // the deadline, not TCP's patience
    ::close(fd);
}

TEST(FedTransport, UrlCodecRoundTripsFederationKeys)
{
    // Lease targets carry device fingerprints and signatures with
    // '/', '@', spaces, and '%' through the query string.
    const std::vector<std::string> samples = {
        kDev, "a b&c=d%e+f", "plain", ""};
    for (const std::string &s : samples)
        EXPECT_EQ(net::urlDecode(net::urlEncode(s)), s) << s;
    EXPECT_EQ(net::urlDecode("a+b"), "a b");
}

// ---------------------------------------------------------------
// Delta sync protocol
// ---------------------------------------------------------------

TEST(Federation, DeltaSyncReplicatesAllItemTypes)
{
    auto nodes = makeFleet(2);
    Node &a = *nodes[0];
    Node &b = *nodes[1];

    support::MetricsRegistry reg;
    b.rep->bindMetrics(&reg);

    a.store.recordProfile(kDev, profiledReport("hot0", 2048), 777);
    a.store.blacklistVariant("hot0", "oob-writer", kDev, "redzone");
    support::Json model = support::Json::object();
    model.set("weights", support::Json(3));
    a.store.setExtension("predictor", model);

    b.rep->syncNow();

    auto rec = b.store.lookup("hot0", kDev, 2048);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->selectedName, "fast");
    // Provenance rides replication: the follower can correlate this
    // record to the owner's profiling pass.
    EXPECT_EQ(rec->profileCid, 777u);
    EXPECT_EQ(rec->profileOrigin, 0u);
    EXPECT_TRUE(b.store.isBlacklisted("hot0", "oob-writer", kDev));
    ASSERT_TRUE(b.store.extension("predictor").has_value());

    a.rep->syncNow(); // pull back the nothing b wrote
    EXPECT_EQ(a.dump(), b.dump());
    EXPECT_GE(reg.counter("fed.apply_record").value(), 1u);
    EXPECT_GE(reg.counter("fed.apply_blacklist").value(), 1u);
    EXPECT_GE(reg.counter("fed.apply_extension").value(), 1u);
}

TEST(Federation, RedeliveryAndCursorResetAreIdempotent)
{
    auto nodes = makeFleet(2);
    Node &a = *nodes[0];
    Node &b = *nodes[1];

    a.store.recordProfile(kDev, profiledReport("hot0", 2048));
    a.store.recordProfile(kDev, profiledReport("hot1", 4096, 0));
    b.rep->syncNow();
    const std::string converged = b.dump();

    // Pulling again and again changes nothing.
    for (int i = 0; i < 5; ++i)
        b.rep->syncNow();
    EXPECT_EQ(b.dump(), converged);

    // A brand-new replicator at b starts at cursor 0 and re-applies
    // the full history -- still a no-op on the store.
    std::vector<std::uint16_t> ports = {a.http.port(), b.http.port()};
    b.attach(1, 2, ports);
    b.rep->syncNow();
    EXPECT_EQ(b.dump(), converged);
}

TEST(Federation, CrashRestartIncarnationForcesFullResync)
{
    auto nodes = makeFleet(2);
    Node &a = *nodes[0];
    Node &b = *nodes[1];
    const std::vector<std::uint16_t> ports = {a.http.port(),
                                              b.http.port()};

    a.store.recordProfile(kDev, profiledReport("pre-crash", 2048));
    b.rep->syncNow();
    ASSERT_TRUE(b.store.lookup("pre-crash", kDev, 2048).has_value());
    const std::uint64_t firstInc = a.rep->incarnation();

    // "Crash" replica 0: its replicator dies and its store restarts
    // empty (the worst case -- nothing persisted), then writes new
    // state.  The new incarnation voids b's cursor into a, so b
    // resyncs from 0 instead of trusting a stale sequence space.
    {
        std::lock_guard<std::mutex> lock(a.repMu);
        a.rep.reset();
    }
    a.store.clear();
    a.store.recordProfile(kDev, profiledReport("post-crash", 4096));
    a.attach(0, 2, ports);
    EXPECT_NE(a.rep->incarnation(), firstInc);

    b.rep->syncNow(); // learns the new incarnation, resyncs from 0
    EXPECT_TRUE(b.store.lookup("post-crash", kDev, 4096).has_value());
    // b still remembers pre-crash (merge never deletes), and a gets
    // it back on its own pull: the fleet re-converges on the union.
    EXPECT_TRUE(b.store.lookup("pre-crash", kDev, 2048).has_value());
    a.rep->syncNow();
    b.rep->syncNow();
    EXPECT_EQ(a.dump(), b.dump());
    EXPECT_TRUE(a.store.lookup("pre-crash", kDev, 2048).has_value());
}

// ---------------------------------------------------------------
// Ownership
// ---------------------------------------------------------------

TEST(Federation, RendezvousOwnershipIsDeterministicAndCoversFleet)
{
    std::vector<unsigned> owned(3, 0);
    for (int k = 0; k < 120; ++k) {
        const std::string sig = "sig" + std::to_string(k);
        const auto owner = fed::ownerOf(sig, kDev, 11, 3);
        ASSERT_LT(owner, 3u);
        // Deterministic: every call agrees.
        EXPECT_EQ(fed::ownerOf(sig, kDev, 11, 3), owner);
        owned[owner]++;
        // Different buckets of one signature may land elsewhere --
        // ownership is per-key, not per-signature.
        EXPECT_EQ(fed::ownerOf(sig, kDev, 12, 3),
                  fed::ownerOf(sig, kDev, 12, 3));
    }
    // Rendezvous hashing spreads 120 keys over all three replicas.
    for (unsigned r = 0; r < 3; ++r)
        EXPECT_GT(owned[r], 0u) << "replica " << r << " owns nothing";
    // Degenerate fleets collapse to self-ownership.
    EXPECT_EQ(fed::ownerOf("anything", kDev, 11, 1), 0u);
    EXPECT_EQ(fed::ownerOf("anything", kDev, 11, 0), 0u);
}

// ---------------------------------------------------------------
// The lease protocol
// ---------------------------------------------------------------

TEST(Federation, LeaseLifecycleGrantWaitRecordExpiry)
{
    store::SelectionStore store;
    fed::ReplicatorConfig cfg;
    cfg.replica = 0;
    cfg.fleetSize = 3;
    cfg.leaseTimeoutMs = 80;
    fed::Replicator rep(store, cfg);

    const std::string target = "/fed/lease?sig=hot0&device="
                               + net::urlEncode(kDev)
                               + "&bucket=11&requester=";
    auto statusOf = [&](const std::string &body) {
        return support::Json::parse(body).at("status").asString();
    };

    // First requester gets the fleet-wide profiling lease.
    auto r = rep.handleFed(target + "1");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(statusOf(r.body), "granted");
    // A second requester parks while the lease is live.
    r = rep.handleFed(target + "2");
    EXPECT_EQ(statusOf(r.body), "wait");
    // The holder retrying is re-granted, not told to wait on itself.
    r = rep.handleFed(target + "1");
    EXPECT_EQ(statusOf(r.body), "granted");

    // The grantee crashed: after the expiry the key is re-grantable.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    r = rep.handleFed(target + "2");
    EXPECT_EQ(statusOf(r.body), "granted");

    // Once the record exists the lease is moot: the owner hands the
    // record itself over, whoever asks.
    store.recordProfile(kDev, profiledReport("hot0", 2048), 42);
    r = rep.handleFed(target + "3");
    const auto doc = support::Json::parse(r.body);
    EXPECT_EQ(doc.at("status").asString(), "record");
    const auto rec = store::recordFromJson(doc.at("record"));
    EXPECT_EQ(rec.selectedName, "fast");
    EXPECT_EQ(rec.profileCid, 42u);

    // Malformed lease queries are 400s, not crashes.
    EXPECT_EQ(rep.handleFed("/fed/lease?bucket=11").status, 400);
    EXPECT_EQ(rep.handleFed("/fed/nope").status, 404);
}

TEST(Federation, ResolveColdFallsBackWhenOwnerIsUnreachable)
{
    store::SelectionStore store;
    fed::ReplicatorConfig cfg;
    cfg.replica = 0;
    cfg.fleetSize = 2;
    cfg.peers = {"127.0.0.1:9"}; // discard port: nothing listens
    cfg.leaseWaitMs = 300;
    cfg.httpTimeoutMs = 100;
    fed::Replicator rep(store, cfg);
    support::MetricsRegistry reg;
    rep.bindMetrics(&reg);

    // Find a key replica 1 owns; our cold miss on it needs the peer.
    std::string sig = "hot0";
    for (int i = 0; !rep.owns(sig, kDev, store::bucketOf(2048))
                    && i < 64;
         ++i)
        sig = "hot" + std::to_string(i + 1);
    // Invert: we want a key we do NOT own.
    for (int i = 0; i < 64; ++i) {
        const std::string cand = "cold" + std::to_string(i);
        if (!rep.owns(cand, kDev, store::bucketOf(2048))) {
            sig = cand;
            break;
        }
    }
    ASSERT_FALSE(rep.owns(sig, kDev, store::bucketOf(2048)));

    const auto t0 = std::chrono::steady_clock::now();
    const auto rs = rep.resolveCold(sig, kDev, 2048);
    const auto elapsedMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Federation is an optimization: a dead owner costs bounded time
    // and degrades to profiling locally, never an error.
    EXPECT_FALSE(rs.warm);
    EXPECT_EQ(reg.counterValue("fed.fallback"), 1u);
    EXPECT_EQ(reg.counterValue("fed.own_local"), 0u);
    EXPECT_LT(elapsedMs, 5000.0);

    // A key we own is profiled here, at once.
    std::string mine = "hot0";
    for (int i = 0; !rep.owns(mine, kDev, store::bucketOf(2048))
                    && i < 64;
         ++i)
        mine = "mine" + std::to_string(i);
    ASSERT_TRUE(rep.owns(mine, kDev, store::bucketOf(2048)));
    EXPECT_FALSE(rep.resolveCold(mine, kDev, 2048).warm);
    EXPECT_EQ(reg.counterValue("fed.own_local"), 1u);
    EXPECT_EQ(reg.counterValue("fed.fallback"), 1u);
    EXPECT_EQ(reg.counterValue("fed.warm"), 0u);
}

TEST(Federation, MalformedQueryNumbersAreTyped400s)
{
    store::SelectionStore store;
    fed::ReplicatorConfig cfg;
    cfg.fleetSize = 2;
    fed::Replicator rep(store, cfg);
    const std::string lease =
        "/fed/lease?sig=hot0&device=" + net::urlEncode(kDev);
    const std::vector<std::string> targets = {
        "/fed/delta?since=zz", "/fed/delta?since=-1",
        "/fed/delta?since=99999999999999999999",
        lease + "&bucket=abc", lease + "&bucket=11&requester=1x",
        "/fed/info?from=q", "/fed/info?from=1&digest=xyz"};
    for (const std::string &target : targets) {
        fed::Replicator::Reply r;
        ASSERT_NO_THROW(r = rep.handleFed(target)) << target;
        EXPECT_EQ(r.status, 400) << target;
        const auto doc = support::Json::parse(r.body);
        EXPECT_EQ(doc.at("code").asString(), "INVALID_ARGUMENT") << target;
        EXPECT_FALSE(doc.at("error").asString().empty()) << target;
    }
    // Well-formed numbers still serve.
    EXPECT_EQ(rep.handleFed("/fed/delta?since=0").status, 200);
    EXPECT_EQ(rep.handleFed(lease + "&bucket=11&requester=1").status, 200);
    EXPECT_EQ(rep.handleFed("/fed/info?from=1&digest=00ff").status, 200);
}

// ---------------------------------------------------------------
// Convergence under randomized orderings and partitions
// ---------------------------------------------------------------

TEST(Federation, RandomizedPartitionsHealToByteIdenticalStores)
{
    // Writes land at random replicas while sync is randomly withheld
    // (partitions); once every link heals, three pull rounds carry
    // every write everywhere and the stores must be byte-identical.
    // Seeded: a failure replays exactly.
    std::mt19937_64 rng(0x9A27171u);
    auto nodes = makeFleet(3);

    const std::vector<std::string> sigs = {"c0", "c1", "c2", "c3"};
    for (int round = 0; round < 40; ++round) {
        const auto at = rng() % nodes.size();
        Node &n = *nodes[at];
        const auto &sig = sigs[rng() % sigs.size()];
        switch (rng() % 4) {
          case 0:
          case 1:
            // Conflicting re-profiles of a shared key: the freshest
            // stamp must win identically everywhere.
            n.store.recordProfile(
                kDev,
                profiledReport(sig, 2048,
                               static_cast<int>(rng() % 2)),
                rng() % 1000);
            break;
          case 2:
            n.store.blacklistVariant(sig, "oob-writer", kDev,
                                     "redzone@"
                                         + std::to_string(at));
            break;
          default: {
            support::Json v = support::Json::object();
            v.set("round", support::Json(round));
            v.set("by", support::Json(
                            static_cast<std::uint64_t>(at)));
            n.store.setExtension("model", std::move(v));
          }
        }
        // Partition: each replica independently may or may not get
        // to sync this round.
        for (auto &node : nodes)
            if (rng() % 2)
                node->rep->syncNow();
    }

    // Heal: everyone pulls everyone, enough rounds for transitive
    // propagation across the mesh.
    for (int i = 0; i < 3; ++i)
        for (auto &node : nodes)
            node->rep->syncNow();

    const std::string want = nodes[0]->dump();
    EXPECT_EQ(nodes[1]->dump(), want);
    EXPECT_EQ(nodes[2]->dump(), want);
    EXPECT_GT(nodes[0]->store.size(), 0u);
}

// ---------------------------------------------------------------
// The acceptance storm: three live replicas under load
// ---------------------------------------------------------------

TEST(Federation, ThreeReplicaStormProfilesEachKeyOnceFleetWide)
{
    constexpr std::uint32_t kReplicas = 3;
    constexpr unsigned kSignatures = 5;
    constexpr unsigned kSizeClasses = 2;

    auto nodes = makeFleet(kReplicas);
    for (auto &node : nodes) {
        // Generous lease windows: under sanitizers a profiling pass
        // can be slow, and a premature takeover would double-profile.
        fed::ReplicatorConfig cfg = node->rep->config();
        cfg.leaseWaitMs = 10000;
        cfg.leaseTimeoutMs = 15000;
        cfg.httpTimeoutMs = 2000;
        std::lock_guard<std::mutex> lock(node->repMu);
        node->rep = std::make_unique<fed::Replicator>(node->store, cfg);
    }
    for (auto &node : nodes) {
        node->rep->start();
        ASSERT_TRUE(node->rep->awaitPeers(10000));
    }

    std::vector<serve::LoadGenReport> reports(kReplicas);
    std::vector<std::thread> storms;
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
        storms.emplace_back([&, r] {
            serve::LoadGenConfig cfg;
            cfg.submitters = 3;
            cfg.devices = 1;
            cfg.signatures = kSignatures;
            cfg.sizeClasses = kSizeClasses;
            cfg.jobsPerSubmitter = 50;
            cfg.variants = 2;
            cfg.seed = 1000 + r;
            cfg.externalStore = &nodes[r]->store;
            cfg.federation = nodes[r]->rep.get();
            reports[r] = serve::runLoadGen(cfg);
        });
    }
    for (auto &t : storms)
        t.join();

    // Every job completed everywhere.
    std::uint64_t submitted = 0, completed = 0, hits = 0;
    for (const auto &rep : reports) {
        EXPECT_EQ(rep.jobsCompleted, rep.jobsSubmitted);
        EXPECT_EQ(rep.jobsFailed, 0u);
        submitted += rep.jobsSubmitted;
        completed += rep.jobsCompleted;
        hits += rep.storeHits;
    }
    ASSERT_GT(submitted, 0u);
    EXPECT_EQ(completed, submitted);

    // Exactly-once global profiling: the union of every replica's
    // locally profiled keys has no duplicates and covers exactly the
    // keyspace (one device fingerprint, so signatures x size
    // classes keys).
    std::set<std::string> uniq;
    std::size_t total = 0;
    for (const auto &rep : reports) {
        for (const auto &key : rep.profiledKeys) {
            uniq.insert(key);
            ++total;
        }
    }
    EXPECT_EQ(total, uniq.size()) << "a key was profiled twice";
    EXPECT_EQ(uniq.size(),
              static_cast<std::size_t>(kSignatures) * kSizeClasses);

    // The fleet served (nearly) everything warm: only the first
    // touch of each key anywhere pays a profile; everyone else warm
    // starts from the store or the federation.
    const double fleetHitRate = static_cast<double>(hits)
                                / static_cast<double>(submitted);
    EXPECT_GE(fleetHitRate, 0.95);

    // Drain to fleet-wide quiescence: every replica must see every
    // peer drained with a matching digest...
    for (auto &node : nodes)
        node->rep->markDrained();
    std::vector<int> quiesced(kReplicas, 0);
    std::vector<std::thread> waiters;
    for (std::uint32_t r = 0; r < kReplicas; ++r)
        waiters.emplace_back([&, r] {
            quiesced[r] = nodes[r]->rep->awaitQuiescence(30000) ? 1 : 0;
        });
    for (auto &t : waiters)
        t.join();
    for (std::uint32_t r = 0; r < kReplicas; ++r)
        EXPECT_EQ(quiesced[r], 1) << "replica " << r
                                  << " never quiesced";

    // ...and the stores must be byte-identical, the paper's
    // convergence claim made literal.
    const std::string want = nodes[0]->dump();
    for (std::uint32_t r = 1; r < kReplicas; ++r)
        EXPECT_EQ(nodes[r]->dump(), want)
            << "replica " << r << " diverged";

    // The introspection surface agrees: every peer row is reachable
    // with applied history.
    const auto peers = nodes[0]->rep->peersJson();
    ASSERT_TRUE(peers.has("peers"));
    for (const auto &jp : peers.at("peers").items())
        EXPECT_TRUE(jp.boolOr("reachable", false));

    for (auto &node : nodes)
        node->rep->stop();
}

// ---------------------------------------------------------------
// Replicated serving telemetry
// ---------------------------------------------------------------

TEST(Federation, ReplicatedServiceTracesWarmHitsAndHelpsEveryFamily)
{
    // No anti-entropy thread runs: the follower's cold miss can only
    // turn warm through the owner's lease endpoint, so exactly one
    // fed.warm_hit is emitted -- counter and instant together.
    constexpr std::uint64_t kUnits = 512; // profilable
    auto nodes = makeFleet(2);
    for (auto &node : nodes)
        ASSERT_TRUE(node->rep->awaitPeers(10000));

    std::vector<std::unique_ptr<serve::DispatchService>> svcs;
    for (auto &node : nodes) {
        auto svc = std::make_unique<serve::DispatchService>(node->store);
        svc->addDevice(std::make_unique<sim::CpuDevice>());
        ASSERT_TRUE(svc->registerKernelPool([](runtime::Runtime &rt) {
                           for (int k = 0; k < 64; ++k) {
                               const auto sig = "rk" + std::to_string(k);
                               rt.addKernel(sig, copyKernel("slow", 4000));
                               rt.addKernel(sig, copyKernel("fast", 100));
                           }
                       })
                        .ok());
        svc->setFederation(node->rep.get());
        svc->tracer().setEnabled(true);
        svc->start();
        svcs.push_back(std::move(svc));
    }
    // A key replica 0 owns: it profiles locally, replica 1 follows.
    const std::string fp = svcs[0]->device(0).fingerprint();
    std::string sig;
    for (int k = 0; k < 64 && sig.empty(); ++k)
        if (nodes[0]->rep->owns("rk" + std::to_string(k), fp,
                                store::bucketOf(kUnits)))
            sig = "rk" + std::to_string(k);
    ASSERT_FALSE(sig.empty());

    kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global, "fed.out");
    for (auto &svc : svcs) {
        serve::JobSpec spec;
        spec.signature(sig).units(kUnits);
        spec.mutableArgs().add(out).add(static_cast<std::int64_t>(kUnits));
        const serve::JobResult r = submitOne(*svc, spec).result();
        ASSERT_TRUE(r.ok()) << r.status.toString();
    }
    for (auto &svc : svcs)
        svc->stop();

    EXPECT_EQ(svcs[0]->metrics().counterValue("fed.warm_hit"), 0u);
    EXPECT_EQ(svcs[1]->metrics().counterValue("fed.warm_hit"), 1u);
    for (auto &svc : svcs) {
        EXPECT_EQ(svc->metrics().counterValue("fed.warm_hit"),
                  svc->tracer().countNamed("fed.warm_hit"));
        // Service rows and every fed.* family carry their own HELP.
        const std::string prom = svc->metrics().renderPrometheus();
        EXPECT_NE(prom.find("# HELP fed_lease_grant "), std::string::npos);
        EXPECT_EQ(prom.find(support::MetricsRegistry::fallbackHelp),
                  std::string::npos)
            << prom;
    }
    // The replicators outlive the services' registries.
    for (auto &node : nodes)
        node->rep->bindMetrics(nullptr);
}
