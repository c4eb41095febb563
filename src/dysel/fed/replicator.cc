#include "replicator.hh"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "dysel/fed/delta.hh"
#include "dysel/fed/ownership.hh"
#include "support/net/http.hh"

namespace dysel {
namespace fed {

using support::Json;
using support::Status;
namespace net = support::net;
using clock = std::chrono::steady_clock;

namespace {

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Split "/fed/delta?since=42&inc=ab" into path + decoded query. */
void
splitTarget(const std::string &target, std::string &path,
            std::map<std::string, std::string> &query)
{
    const auto qpos = target.find('?');
    path = target.substr(0, qpos);
    if (qpos == std::string::npos)
        return;
    std::size_t at = qpos + 1;
    while (at < target.size()) {
        auto amp = target.find('&', at);
        if (amp == std::string::npos)
            amp = target.size();
        const std::string pair = target.substr(at, amp - at);
        const auto eq = pair.find('=');
        if (eq != std::string::npos)
            query[net::urlDecode(pair.substr(0, eq))] =
                net::urlDecode(pair.substr(eq + 1));
        else if (!pair.empty())
            query[net::urlDecode(pair)] = "";
        at = amp + 1;
    }
}

using Query = std::map<std::string, std::string>;

/** Query parameter @p name, or "" when absent. */
const std::string &
queryArg(const Query &query, const char *name)
{
    static const std::string empty;
    const auto it = query.find(name);
    return it == query.end() ? empty : it->second;
}

/**
 * Parse query parameter @p name, when non-empty, as a whole number in
 * @p base into @p out; false when it is anything else (trailing bytes,
 * a sign on an unsigned field, overflow).  An empty or absent
 * parameter leaves @p out as it is.
 */
template <typename T>
bool
queryNumber(const Query &query, const char *name, T &out, int base = 10)
{
    const std::string &text = queryArg(query, name);
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return text.empty() || (ec == std::errc() && ptr == end);
}

/** The typed 400 of a federation request whose @p what is malformed. */
Replicator::Reply
badQuery(const std::string &what)
{
    Json doc = Json::object();
    doc.set("code", Json(support::statusCodeName(
                        support::StatusCode::InvalidArgument)));
    doc.set("error", Json("malformed or missing query parameter: " + what));
    return Replicator::Reply{400, doc.dump(0) + "\n"};
}

/** Every fed.* family the replicator counts, with its HELP text. */
constexpr std::pair<const char *, const char *> fedCounters[] = {
    {"fed.pull", "Anti-entropy delta pulls attempted."},
    {"fed.pull_fail", "Delta pulls that failed or got a non-200 reply."},
    {"fed.delta_invalid", "Pulled deltas rejected as malformed."},
    {"fed.apply_record", "Remote records merged into the store."},
    {"fed.apply_blacklist", "Remote blacklist entries merged."},
    {"fed.apply_extension", "Remote store extensions merged."},
    {"fed.stale", "Remote items older than the local copy."},
    {"fed.delta_serve", "Deltas served to pulling peers."},
    {"fed.own_local", "Cold misses on owned keys profiled locally."},
    {"fed.own_parked", "Cold misses on owned keys parked behind a "
                       "peer's lease."},
    {"fed.own_takeover", "Owned keys taken back after a lease expired."},
    {"fed.warm", "Cold misses resolved warm from a replicated record."},
    {"fed.lease_granted", "Profiling leases the owner granted us."},
    {"fed.parked", "Lease polls answered with wait."},
    {"fed.fallback", "Cold misses that fell back to local profiling."},
    {"fed.lease_record", "Lease requests answered with the record."},
    {"fed.lease_wait", "Lease requests answered with wait."},
    {"fed.lease_grant", "Profiling leases granted to peers."},
};

} // namespace

Replicator::Replicator(store::SelectionStore &store,
                       ReplicatorConfig cfg)
    : store_(store), cfg_(std::move(cfg))
{
    store_.setReplica(cfg_.replica);
    // Unique-enough per process lifetime: a restarted replica
    // presents a different incarnation, which voids every peer's
    // cursor into us (their next pull resyncs from 0).
    const auto nowNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    incarnation_ =
        fnv1a64(std::to_string(::getpid()) + "/"
                + std::to_string(nowNs) + "/"
                + std::to_string(cfg_.replica));
    for (const auto &addr : cfg_.peers) {
        Peer p;
        const auto colon = addr.rfind(':');
        if (colon == std::string::npos)
            throw std::invalid_argument(
                "Replicator: peer '" + addr
                + "' is not host:port");
        p.host = addr.substr(0, colon);
        p.port = static_cast<std::uint16_t>(
            std::stoul(addr.substr(colon + 1)));
        peers_.push_back(std::move(p));
    }
}

Replicator::~Replicator()
{
    stop();
}

void
Replicator::bindMetrics(support::MetricsRegistry *reg)
{
    std::lock_guard<std::mutex> lock(regMu);
    reg_ = reg;
    if (reg_)
        for (const auto &[name, help] : fedCounters)
            reg_->counter(name, help);
}

void
Replicator::count(const char *name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(regMu);
    if (reg_)
        reg_->counter(name).inc(delta);
}

void
Replicator::start()
{
    if (running_.exchange(true, std::memory_order_acq_rel))
        return;
    thread_ = std::thread([this] { syncLoop(); });
}

void
Replicator::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel)) {
        if (thread_.joinable())
            thread_.join();
        return;
    }
    wakeCv.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
Replicator::syncLoop()
{
    while (running_.load(std::memory_order_acquire)) {
        syncNow();
        std::unique_lock<std::mutex> lock(wakeMu);
        wakeCv.wait_for(
            lock, std::chrono::milliseconds(cfg_.syncIntervalMs),
            [this] {
                return !running_.load(std::memory_order_acquire);
            });
    }
}

void
Replicator::syncNow()
{
    for (std::size_t i = 0; i < peers_.size(); ++i)
        pullPeer(i);
}

bool
Replicator::awaitPeers(int timeoutMs)
{
    const auto deadline =
        clock::now() + std::chrono::milliseconds(timeoutMs);
    while (true) {
        bool all = true;
        for (std::size_t i = 0; i < peers_.size(); ++i) {
            probePeer(i);
            std::lock_guard<std::mutex> lock(mu);
            if (!peers_[i].reachable)
                all = false;
        }
        if (all)
            return true;
        if (clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.leasePollMs));
    }
}

void
Replicator::probePeer(std::size_t idx)
{
    std::string host;
    std::uint16_t port;
    bool drained;
    {
        std::lock_guard<std::mutex> lock(mu);
        host = peers_[idx].host;
        port = peers_[idx].port;
        drained = drained_;
    }
    std::string target =
        "/fed/info?from=" + std::to_string(cfg_.replica);
    // Announce our own quiescence state with the probe (see
    // infoReply).  The digest serializes the store, so only pay for
    // it once we are drained and peers actually compare it.
    if (drained)
        target += "&drained=1&digest=" + hex16(digest());
    std::string body;
    int status = 0;
    const Status st = net::httpGet(host, port, target, body, status,
                                   cfg_.httpTimeoutMs);
    std::lock_guard<std::mutex> lock(mu);
    Peer &p = peers_[idx];
    if (!st.ok() || status != 200) {
        p.reachable = false;
        p.lastError = st.ok() ? "HTTP " + std::to_string(status)
                              : std::string(st.message());
        return;
    }
    try {
        const Json doc = Json::parse(body);
        p.replica =
            static_cast<std::int64_t>(doc.at("replica").asUint());
        const std::uint64_t inc = std::stoull(
            doc.at("incarnation").asString(), nullptr, 16);
        if (p.incarnation != 0 && inc != p.incarnation)
            p.cursor = 0; // peer restarted: full resync
        p.incarnation = inc;
        p.sawDrained = doc.boolOr("drained", false);
        p.lastDigest = std::stoull(doc.at("digest").asString(),
                                   nullptr, 16);
        p.reachable = true;
        p.lastError.clear();
    } catch (const std::exception &e) {
        p.reachable = false;
        p.lastError = std::string("info parse: ") + e.what();
    }
}

void
Replicator::pullPeer(std::size_t idx)
{
    std::string host;
    std::uint16_t port;
    std::uint64_t cursor, inc;
    {
        std::lock_guard<std::mutex> lock(mu);
        const Peer &p = peers_[idx];
        host = p.host;
        port = p.port;
        cursor = p.cursor;
        inc = p.incarnation;
    }
    const std::string target = "/fed/delta?since="
                               + std::to_string(cursor)
                               + "&inc=" + hex16(inc);
    std::string body;
    int status = 0;
    const Status st = net::httpGet(host, port, target, body, status,
                                   cfg_.httpTimeoutMs);
    count("fed.pull");
    if (!st.ok() || status != 200) {
        count("fed.pull_fail");
        std::lock_guard<std::mutex> lock(mu);
        Peer &p = peers_[idx];
        p.failures++;
        p.reachable = false;
        p.lastError = st.ok() ? "HTTP " + std::to_string(status)
                              : std::string(st.message());
        return;
    }
    Delta delta;
    try {
        const Status ds = decodeDelta(Json::parse(body), delta);
        if (!ds.ok()) {
            count("fed.delta_invalid");
            std::lock_guard<std::mutex> lock(mu);
            peers_[idx].failures++;
            peers_[idx].lastError = std::string(ds.message());
            return;
        }
    } catch (const std::exception &e) {
        count("fed.delta_invalid");
        std::lock_guard<std::mutex> lock(mu);
        peers_[idx].failures++;
        peers_[idx].lastError =
            std::string("delta parse: ") + e.what();
        return;
    }
    // Apply through the merge rule; stale items are the expected
    // steady state of anti-entropy, not errors.
    std::uint64_t applied = 0;
    for (const auto &rec : delta.records) {
        if (store_.applyRemoteRecord(rec)
            != store::SelectionStore::Apply::Stale) {
            applied++;
            count("fed.apply_record");
        } else {
            count("fed.stale");
        }
    }
    for (const auto &e : delta.blacklist) {
        if (store_.applyRemoteBlacklist(e)
            != store::SelectionStore::Apply::Stale) {
            applied++;
            count("fed.apply_blacklist");
        } else {
            count("fed.stale");
        }
    }
    for (const auto &ext : delta.extensions) {
        if (store_.applyRemoteExtension(ext)
            != store::SelectionStore::Apply::Stale) {
            applied++;
            count("fed.apply_extension");
        } else {
            count("fed.stale");
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    Peer &p = peers_[idx];
    p.pulls++;
    p.applied += applied;
    p.replica = delta.replica;
    p.incarnation = delta.incarnation;
    p.cursor = delta.seqHigh;
    p.reachable = true;
    p.lastError.clear();
}

bool
Replicator::owns(const std::string &signature,
                 const std::string &device, unsigned bucket) const
{
    return ownerOf(signature, device, bucket, cfg_.fleetSize)
           == cfg_.replica;
}

Replicator::Resolve
Replicator::resolveCold(const std::string &signature,
                        const std::string &device,
                        std::uint64_t units)
{
    const unsigned bucket = store::bucketOf(units);
    const std::uint32_t owner =
        ownerOf(signature, device, bucket, cfg_.fleetSize);
    const std::string key = keyString(signature, device, bucket);
    const auto t0 = clock::now();
    const auto deadline = t0 + std::chrono::milliseconds(cfg_.leaseWaitMs);
    const auto resolved = [&t0](bool warm) {
        return Resolve{warm, std::chrono::duration<double, std::milli>(
                                 clock::now() - t0)
                                 .count()};
    };

    if (owner == cfg_.replica) {
        // We profile our own keys -- unless a peer already holds the
        // fleet-wide lease, in which case we park like any follower
        // and take over only if the lease expires.
        {
            std::lock_guard<std::mutex> lock(mu);
            if (grantLocked(key, cfg_.replica)) {
                count("fed.own_local");
                return resolved(false);
            }
        }
        count("fed.own_parked");
        if (park(signature, device, units, deadline, nullptr) == Park::Warm)
            return resolved(true);
        // The grantee never delivered: take the lease back.
        {
            std::lock_guard<std::mutex> lock(mu);
            leases_.erase(key);
            grantLocked(key, cfg_.replica);
        }
        count("fed.own_takeover");
        return resolved(false);
    }

    // Follower: find the owner's address (learned from handshakes).
    auto ownerAddr = [&]() -> std::pair<std::string, std::uint16_t> {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &p : peers_)
            if (p.replica == static_cast<std::int64_t>(owner))
                return {p.host, p.port};
        return {"", 0};
    };
    auto addr = ownerAddr();
    if (addr.second == 0) {
        // Identities not learned yet (early cold keys race the first
        // sync round): probe everyone once, then give up gracefully.
        for (std::size_t i = 0; i < peers_.size(); ++i)
            probePeer(i);
        addr = ownerAddr();
    }
    const auto fallback = [this] {
        count("fed.fallback");
        return Park::Cold;
    };
    if (addr.second == 0) {
        fallback();
        return resolved(false);
    }

    // One lease request per parked round: the owner answers with the
    // record, a lease of our own, or "wait".
    const std::string target =
        "/fed/lease?sig=" + net::urlEncode(signature)
        + "&device=" + net::urlEncode(device)
        + "&bucket=" + std::to_string(bucket)
        + "&requester=" + std::to_string(cfg_.replica);
    const auto askOwner = [&]() -> Park {
        std::string body;
        int status = 0;
        const Status st = net::httpGet(addr.first, addr.second, target,
                                       body, status, cfg_.httpTimeoutMs);
        if (!st.ok() || status != 200)
            return fallback();
        try {
            const Json doc = Json::parse(body);
            const std::string &state = doc.at("status").asString();
            if (state == "record") {
                store_.applyRemoteRecord(
                    store::recordFromJson(doc.at("record")));
                // Blacklisted/invalid on arrival: profile locally.
                return store_.lookup(signature, device, units)
                           ? Park::Warm
                           : fallback();
            }
            if (state == "granted") {
                count("fed.lease_granted");
                return Park::Cold;
            }
            // "wait": someone is profiling; stay parked.
            count("fed.parked");
            return Park::Wait;
        } catch (const std::exception &) {
            return fallback();
        }
    };
    const Park outcome = park(signature, device, units, deadline, askOwner);
    if (outcome == Park::Wait)
        fallback(); // the lease wait timed out
    return resolved(outcome == Park::Warm);
}

Replicator::Park
Replicator::park(const std::string &signature, const std::string &device,
                 std::uint64_t units, clock::time_point deadline,
                 const std::function<Park()> &poll)
{
    while (clock::now() < deadline) {
        // The record may arrive by gossip while we park.
        const Park p = store_.lookup(signature, device, units) ? Park::Warm
                       : poll                                  ? poll()
                                                               : Park::Wait;
        if (p == Park::Warm)
            count("fed.warm");
        if (p != Park::Wait)
            return p;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.leasePollMs));
    }
    return Park::Wait;
}

bool
Replicator::grantLocked(const std::string &key, std::uint32_t holder)
{
    auto it = leases_.find(key);
    if (it != leases_.end() && it->second.expiry >= clock::now()
        && it->second.holder != holder)
        return false;
    leases_.insert_or_assign(
        key, Lease{holder, clock::now() + std::chrono::milliseconds(
                                              cfg_.leaseTimeoutMs)});
    return true;
}

Replicator::Reply
Replicator::handleFed(const std::string &target)
{
    std::string path;
    std::map<std::string, std::string> query;
    splitTarget(target, path, query);
    if (path == "/fed/delta")
        return deltaReply(query);
    if (path == "/fed/lease")
        return leaseReply(query);
    if (path == "/fed/info")
        return infoReply(query);
    return Reply{404, "{\"error\": \"unknown federation endpoint\"}\n"};
}

Replicator::Reply
Replicator::deltaReply(const std::map<std::string, std::string> &query)
{
    std::uint64_t since = 0;
    if (!queryNumber(query, "since", since))
        return badQuery("since");
    // A cursor minted against a previous incarnation of this process
    // indexes a seq space that no longer exists: serve everything.
    if (queryArg(query, "inc") != hex16(incarnation_))
        since = 0;
    const auto changes = store_.changedSince(since);
    Delta delta;
    delta.replica = cfg_.replica;
    delta.incarnation = incarnation_;
    delta.seqHigh = changes.seqHigh;
    delta.records = changes.records;
    delta.blacklist = changes.blacklist;
    delta.extensions = changes.extensions;
    count("fed.delta_serve");
    return Reply{200, encodeDelta(delta).dump(0) + "\n"};
}

Replicator::Reply
Replicator::leaseReply(const std::map<std::string, std::string> &query)
{
    const std::string &sig = queryArg(query, "sig");
    const std::string &device = queryArg(query, "device");
    if (sig.empty() || device.empty())
        return badQuery("sig and device");
    unsigned bucket = 0;
    std::uint32_t requester = 0;
    if (!queryNumber(query, "bucket", bucket))
        return badQuery("bucket");
    if (!queryNumber(query, "requester", requester))
        return badQuery("requester");

    // Already profiled: hand the record over; the lease (if any) is
    // done with.
    const std::string key = keyString(sig, device, bucket);
    Json doc = Json::object();
    if (auto rec = store_.lookup(sig, device,
                                 store::unitsForBucket(bucket))) {
        {
            std::lock_guard<std::mutex> lock(mu);
            leases_.erase(key);
        }
        doc.set("status", Json("record"));
        doc.set("record", store::recordToJson(*rec));
        count("fed.lease_record");
        return Reply{200, doc.dump(0) + "\n"};
    }
    std::lock_guard<std::mutex> lock(mu);
    if (grantLocked(key, requester)) {
        doc.set("status", Json("granted"));
        count("fed.lease_grant");
    } else {
        doc.set("status", Json("wait"));
        doc.set("holder", Json(leases_.at(key).holder));
        count("fed.lease_wait");
    }
    return Reply{200, doc.dump(0) + "\n"};
}

Replicator::Reply
Replicator::infoReply(const std::map<std::string, std::string> &query)
{
    // The probe doubles as a push: the prober announces its own
    // drained flag and digest so one request in either direction
    // informs both sides.  Without this the last replica to drain can
    // satisfy its quiescence predicate and exit before its peers ever
    // probe its drained state, stranding them at the barrier.
    std::int64_t from = -1;
    std::uint64_t digestIn = 0;
    if (!queryNumber(query, "from", from))
        return badQuery("from");
    if (!queryNumber(query, "digest", digestIn, 16))
        return badQuery("digest");
    if (from >= 0) {
        std::lock_guard<std::mutex> lock(mu);
        for (auto &p : peers_) {
            if (p.replica != from)
                continue;
            if (queryArg(query, "drained") == "1")
                p.sawDrained = true;
            if (!queryArg(query, "digest").empty())
                p.lastDigest = digestIn;
            break;
        }
    }
    Json doc = Json::object();
    doc.set("replica", Json(cfg_.replica));
    doc.set("incarnation", Json(hex16(incarnation_)));
    doc.set("lamport", Json(store_.lamportClock()));
    doc.set("seq", Json(store_.changeSeq()));
    doc.set("records", Json(store_.size()));
    doc.set("digest", Json(hex16(digest())));
    {
        std::lock_guard<std::mutex> lock(mu);
        doc.set("drained", Json(drained_));
    }
    return Reply{200, doc.dump(0) + "\n"};
}

support::Json
Replicator::peersJson() const
{
    Json arr = Json::array();
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &p : peers_) {
            Json jp = Json::object();
            jp.set("addr",
                   Json(p.host + ":" + std::to_string(p.port)));
            jp.set("replica", Json(p.replica));
            jp.set("incarnation", Json(hex16(p.incarnation)));
            jp.set("cursor", Json(p.cursor));
            jp.set("pulls", Json(p.pulls));
            jp.set("failures", Json(p.failures));
            jp.set("applied", Json(p.applied));
            jp.set("reachable", Json(p.reachable));
            if (!p.lastError.empty())
                jp.set("last_error", Json(p.lastError));
            arr.push(std::move(jp));
        }
    }
    Json doc = Json::object();
    doc.set("replica", Json(cfg_.replica));
    doc.set("fleet_size", Json(cfg_.fleetSize));
    doc.set("incarnation", Json(hex16(incarnation_)));
    doc.set("lamport", Json(store_.lamportClock()));
    doc.set("seq", Json(store_.changeSeq()));
    doc.set("digest", Json(hex16(digest())));
    doc.set("peers", std::move(arr));
    {
        std::lock_guard<std::mutex> lock(mu);
        doc.set("leases", Json(leases_.size()));
        doc.set("drained", Json(drained_));
    }
    return doc;
}

void
Replicator::markDrained()
{
    std::lock_guard<std::mutex> lock(mu);
    drained_ = true;
}

std::uint64_t
Replicator::digest() const
{
    return fnv1a64(store_.toJson().dump(0));
}

bool
Replicator::awaitQuiescence(int timeoutMs)
{
    const auto deadline =
        clock::now() + std::chrono::milliseconds(timeoutMs);
    while (clock::now() < deadline) {
        syncNow();
        const std::uint64_t mine = digest();
        for (std::size_t i = 0; i < peers_.size(); ++i)
            probePeer(i);
        bool all = true;
        {
            std::lock_guard<std::mutex> lock(mu);
            for (const auto &p : peers_) {
                // An unreachable peer that matched while drained has
                // saved and exited; anyone else is unconverged.
                if (!(p.sawDrained && p.lastDigest == mine)) {
                    all = false;
                    break;
                }
            }
        }
        if (all)
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.leasePollMs));
    }
    return false;
}

} // namespace fed
} // namespace dysel
