#include "coalescer.hh"

namespace dysel {
namespace serve {

std::string
ProfileCoalescer::key(const std::string &signature,
                      const std::string &fingerprint, unsigned bucket)
{
    std::string k;
    k.reserve(signature.size() + fingerprint.size() + 8);
    k += signature;
    k += '\x1f';
    k += fingerprint;
    k += '\x1f';
    k += std::to_string(bucket);
    return k;
}

ProfileCoalescer::Ticket
ProfileCoalescer::acquire(const std::string &key, std::uint64_t jobId)
{
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = leaders.emplace(key, jobId);
    Ticket t;
    t.leader = inserted;
    t.leaderId = it->second;
    return t;
}

void
ProfileCoalescer::awaitRelease(const std::string &key)
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leaders.count(key) == 0; });
}

void
ProfileCoalescer::release(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        leaders.erase(key);
    }
    cv.notify_all();
}

} // namespace serve
} // namespace dysel
