/**
 * @file
 * Profiling coalescer: collapses concurrent micro-profiling of the
 * same selection key.
 *
 * When several in-flight jobs share a (kernel signature, device
 * fingerprint, size bucket) and none has a stored selection yet, each
 * would pay its own micro-profiling pass -- redundant work, since the
 * first pass's record serves all of them (DySel's premise is that
 * profiling amortizes across the workload, §2.2/§2.4).  The coalescer
 * makes exactly one of them the *leader*: the leader runs the
 * profiling launch, the *followers* block until the leader releases
 * the key, re-read the selection store, and ride the fresh record as
 * plain warm-started launches.
 *
 * A leader that fails (injected fault, guard storm) releases the key
 * without a record; one waiting follower then takes over leadership,
 * so a crashing leader never strands its followers.  Leaders never
 * wait on other keys, so follower waits cannot form a cycle.
 *
 * Thread-safe; one instance is shared by all dispatch-service
 * workers.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dysel {
namespace serve {

class ProfileCoalescer
{
  public:
    /** Outcome of an acquire() bid. */
    struct Ticket
    {
        /** This caller is the profiling leader for the key. */
        bool leader = false;
        /** Job id of the current leader (own id when leader). */
        std::uint64_t leaderId = 0;
    };

    /** Canonical coalescing key. */
    static std::string key(const std::string &signature,
                           const std::string &fingerprint,
                           unsigned bucket);

    /**
     * Bid for profiling leadership of @p key.  The first bidder wins
     * and must call release() when its profiling attempt is over
     * (success or failure); later bidders get the leader's job id
     * back and should awaitRelease() then re-check the store.
     */
    Ticket acquire(const std::string &key, std::uint64_t jobId);

    /**
     * Block until @p key has no leader.  Returns immediately when
     * nobody leads it.
     */
    void awaitRelease(const std::string &key);

    /** End the caller's leadership of @p key and wake its followers. */
    void release(const std::string &key);

  private:
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, std::uint64_t> leaders; ///< key -> job id
};

/**
 * RAII leadership: releases the key on destruction unless disarmed.
 * The dispatch service arms one around the leader's launch so every
 * exit path (fault, guard trip, exception) wakes the followers.
 */
class CoalesceLease
{
  public:
    CoalesceLease() = default;
    CoalesceLease(ProfileCoalescer &c, std::string key)
        : coalescer(&c), key_(std::move(key))
    {}
    CoalesceLease(const CoalesceLease &) = delete;
    CoalesceLease &operator=(const CoalesceLease &) = delete;
    CoalesceLease(CoalesceLease &&other) noexcept
        : coalescer(other.coalescer), key_(std::move(other.key_))
    {
        other.coalescer = nullptr;
    }
    CoalesceLease &operator=(CoalesceLease &&other) noexcept
    {
        if (this != &other) {
            if (coalescer)
                coalescer->release(key_);
            coalescer = other.coalescer;
            key_ = std::move(other.key_);
            other.coalescer = nullptr;
        }
        return *this;
    }
    ~CoalesceLease()
    {
        if (coalescer)
            coalescer->release(key_);
    }

  private:
    ProfileCoalescer *coalescer = nullptr;
    std::string key_;
};

} // namespace serve
} // namespace dysel
