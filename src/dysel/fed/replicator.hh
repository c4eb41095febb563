/**
 * @file
 * The pluggable replication layer over SelectionStore (DESIGN §13).
 *
 * One Replicator per replica: it owns the peer table, a background
 * anti-entropy thread that pulls deltas from every peer over the
 * support/net HTTP front, and the distributed leader/follower
 * protocol that decides who profiles a cold key.
 *
 * Pull-only gossip: each replica serves GET /fed/delta?since=CURSOR
 * from its store's change log and pulls the same from every peer on
 * an interval.  Cursors are per-(puller, peer); a peer restart is
 * detected through its incarnation and resets the cursor to 0 (full
 * resync).  All mutation flows through the store's applyRemote*()
 * merge rule, so delta ordering, duplication, and partitions cannot
 * diverge replicas.
 *
 * Cold-key resolution mirrors the in-process ProfileCoalescer,
 * stretched across the fleet: the key's rendezvous-hash owner is the
 * single profiler.  A non-owner asks the owner for a lease
 * (GET /fed/lease): the owner answers "record" (already profiled --
 * warm-start now), "granted" (you profile; the record flows back by
 * gossip), or "wait" (someone is profiling; park on the
 * remote-pending state and poll).  Every transport failure degrades
 * to profiling locally -- federation is an optimization, never a
 * correctness dependency.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dysel/store/selection_store.hh"
#include "support/metrics.hh"

namespace dysel {
namespace fed {

/** One replica's federation shape. */
struct ReplicatorConfig
{
    /** This replica's id in [0, fleetSize). */
    std::uint32_t replica = 0;

    /** Replicas in the fleet (ownership hashes over this). */
    std::uint32_t fleetSize = 1;

    /** Peer admin addresses, "host:port" (self excluded). */
    std::vector<std::string> peers;

    /** Anti-entropy pull interval. */
    int syncIntervalMs = 50;

    /**
     * Longest a non-owner parks on a remote-pending cold key before
     * giving up and profiling locally.
     */
    int leaseWaitMs = 2000;

    /** Poll cadence while parked. */
    int leasePollMs = 10;

    /**
     * Owner-side lease expiry: a granted lease whose record never
     * arrived (grantee crashed) is re-grantable after this long.
     */
    int leaseTimeoutMs = 4000;

    /** Per-request transport deadline (httpGet). */
    int httpTimeoutMs = 1000;
};

/** The replication layer. */
class Replicator
{
  public:
    /** @p store must outlive the replicator. */
    Replicator(store::SelectionStore &store, ReplicatorConfig cfg);
    ~Replicator();

    Replicator(const Replicator &) = delete;
    Replicator &operator=(const Replicator &) = delete;

    const ReplicatorConfig &config() const { return cfg_; }

    /**
     * Counters land here when set (fed.* namespace); binding registers
     * every fed.* family with its HELP text.
     */
    void bindMetrics(support::MetricsRegistry *reg);

    /** Spawn the anti-entropy thread.  Idempotent. */
    void start();

    /** Stop and join the anti-entropy thread.  Idempotent. */
    void stop();

    /** One synchronous pull round over every peer (tests, drain). */
    void syncNow();

    /**
     * Block until every peer answers /fed/info (their identities are
     * then learned and lease routing works), or @p timeoutMs passes.
     * Call before offering load: a storm started against unreachable
     * peers degrades cold misses to local profiling (fed.fallback),
     * which is safe but defeats the fleet's exactly-once economy.
     */
    bool awaitPeers(int timeoutMs);

    /** This process incarnation (changes across restarts). */
    std::uint64_t incarnation() const { return incarnation_; }

    /** Whether this replica owns (signature, device, bucket). */
    bool owns(const std::string &signature, const std::string &device,
              unsigned bucket) const;

    /** What resolveCold() decided for a cold profilable miss. */
    struct Resolve
    {
        /** The key's record is in the store now: re-read it and serve
         * warm.  False: profile here -- we own the key, the owner
         * granted us its lease, or federation fell back (fed.*). */
        bool warm = false;

        /** Milliseconds parked on the remote-pending state. */
        double waitedMs = 0.0;
    };

    /**
     * Resolve a cold profilable miss of (@p signature, @p device,
     * bucketOf(@p units)).  Blocks up to leaseWaitMs while parked on
     * a remote-pending key.  Thread-safe.
     */
    Resolve resolveCold(const std::string &signature,
                        const std::string &device,
                        std::uint64_t units);

    /**
     * Serve one federation endpoint (target like
     * "/fed/delta?since=42").  Returns (HTTP status, JSON body).
     * Thread-safe; called from the admin HTTP front.
     */
    struct Reply
    {
        int status = 200;
        std::string body;
    };
    Reply handleFed(const std::string &target);

    /** /debug/peers document: per-peer sync and lease state. */
    support::Json peersJson() const;

    /**
     * Mark this replica drained (its storm is over; no more local
     * writes).  /fed/info advertises it so peers can detect
     * fleet-wide quiescence.
     */
    void markDrained();

    /**
     * Block until every peer is drained and reports the same store
     * digest as ours (fleet-wide convergence), or @p timeoutMs
     * passes.  Peers that vanish after matching while drained count
     * as converged (they saved and exited).  Call after
     * markDrained().
     */
    bool awaitQuiescence(int timeoutMs);

    /** FNV-1a64 of the store's serialized form (convergence probe). */
    std::uint64_t digest() const;

  private:
    struct Peer
    {
        std::string host;
        std::uint16_t port = 0;
        /** Peer replica id, learned from its first delta/info. */
        std::int64_t replica = -1;
        std::uint64_t incarnation = 0;
        std::uint64_t cursor = 0;
        std::uint64_t pulls = 0;
        std::uint64_t failures = 0;
        std::uint64_t applied = 0;
        std::string lastError;
        bool reachable = false;
        /** Last quiescence probe of this peer. */
        bool sawDrained = false;
        std::uint64_t lastDigest = 0;
    };

    struct Lease
    {
        std::uint32_t holder = 0;
        std::chrono::steady_clock::time_point expiry;
    };

    /** A parked cold key: keep waiting (from park(): timed out), its
     * record is in the store (fed.warm), or profile here. */
    enum class Park { Wait, Warm, Cold };

    /**
     * Park on a key another replica profiles until @p deadline: each
     * round ends Warm once the record is in the store, else asks
     * @p poll (may be empty), then sleeps leasePollMs.
     */
    Park park(const std::string &signature, const std::string &device,
              std::uint64_t units,
              std::chrono::steady_clock::time_point deadline,
              const std::function<Park()> &poll);

    /** Lease @p key to @p holder unless another holder's lease is
     * live; returns whether it did.  Caller holds mu. */
    bool grantLocked(const std::string &key, std::uint32_t holder);

    void syncLoop();
    /** Pull and apply one peer's delta.  Caller must NOT hold mu. */
    void pullPeer(std::size_t idx);
    /** Refresh peer identity via /fed/info.  Caller must NOT hold mu. */
    void probePeer(std::size_t idx);
    Reply deltaReply(const std::map<std::string, std::string> &query);
    Reply leaseReply(const std::map<std::string, std::string> &query);
    Reply infoReply(const std::map<std::string, std::string> &query);
    void count(const char *name, std::uint64_t delta = 1);

    store::SelectionStore &store_;
    const ReplicatorConfig cfg_;
    std::uint64_t incarnation_ = 0;

    /**
     * Guards reg_: bindMetrics() races the sync thread and the HTTP
     * front, and holding the lock across the increment means that
     * once bindMetrics(nullptr) returns, no in-flight count() can
     * still touch the old (possibly dying) registry.
     */
    mutable std::mutex regMu;
    support::MetricsRegistry *reg_ = nullptr;

    mutable std::mutex mu;
    std::vector<Peer> peers_;
    std::map<std::string, Lease> leases_;
    bool drained_ = false;

    std::thread thread_;
    std::atomic<bool> running_{false};
    std::mutex wakeMu;
    std::condition_variable wakeCv;
};

} // namespace fed
} // namespace dysel
