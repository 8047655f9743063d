#include "service/warm_pool.hpp"

namespace pythia::service {

WarmPool::WarmPool(std::size_t byte_budget) : budget_(byte_budget) {}

std::size_t
warmSnapshotBytes(const WarmPool::Snapshot& snap)
{
    std::size_t n = 0;
    if (snap.image)
        n += snap.image->bytes.size();
    if (snap.prefix)
        n += snap.prefix->size() * sizeof(wl::TraceRecord);
    return n;
}

WarmPool::Role
WarmPool::acquire(const std::string& fingerprint, Snapshot* out,
                  std::function<void()> on_settled)
{
    if (!enabled())
        return Role::kLeader; // pool off: everyone warms themselves

    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
        Entry& e = it->second;
        if (e.ready) {
            e.last_use = ++clock_;
            ++stats_.hits;
            if (out)
                *out = e.snap;
            return Role::kHit;
        }
        ++stats_.waits;
        e.waiters.push_back(std::move(on_settled));
        return Role::kWaiter;
    }
    // First in: pin a pending entry; this caller owns settling it.
    entries_.emplace(fingerprint, Entry{});
    ++stats_.misses;
    return Role::kLeader;
}

void
WarmPool::publish(const std::string& fingerprint,
                  std::vector<std::uint8_t> image,
                  std::vector<wl::TraceRecord> prefix)
{
    if (!enabled())
        return;

    Snapshot warm;
    try {
        // Integrity only: the fingerprint is compared per hit, against
        // the fingerprint of the tenant restoring.
        warm.image = std::make_shared<const snap::SnapshotFile>(
            snap::readSnapshotBytes(std::move(image), "", "warm-pool"));
    } catch (const snap::SnapshotError&) {
        abandon(fingerprint);
        throw;
    }
    warm.prefix = std::make_shared<const std::vector<wl::TraceRecord>>(
        std::move(prefix));

    std::vector<std::function<void()>> waiters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Entry& e = entries_[fingerprint]; // pending, or fresh if the
                                          // entry was abandoned/raced
        waiters.swap(e.waiters);
        e.snap = std::move(warm);
        e.bytes = warmSnapshotBytes(e.snap);
        e.ready = true;
        e.last_use = ++clock_;
        bytes_ += e.bytes;
        ++stats_.inserts;
        enforceBudget();
    }
    // Callbacks run unlocked: they re-schedule openTask, which
    // re-acquires (normally a hit — unless the budget already evicted
    // an oversized entry, in which case one waiter leads again).
    for (auto& fn : waiters)
        if (fn)
            fn();
}

void
WarmPool::abandon(const std::string& fingerprint)
{
    if (!enabled())
        return;

    std::vector<std::function<void()>> waiters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(fingerprint);
        if (it == entries_.end() || it->second.ready)
            return; // nothing pending to abandon
        waiters.swap(it->second.waiters);
        entries_.erase(it);
    }
    for (auto& fn : waiters)
        if (fn)
            fn();
}

void
WarmPool::enforceBudget()
{
    while (bytes_ > budget_) {
        // Find the least-recently-used ready entry. Pending entries
        // are pinned (a leader is warming for their waiters).
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.ready)
                continue;
            if (victim == entries_.end() ||
                it->second.last_use < victim->second.last_use)
                victim = it;
        }
        if (victim == entries_.end())
            return;
        bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        ++stats_.evictions;
    }
}

WarmPool::Stats
WarmPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.bytes = bytes_;
    s.entries = entries_.size();
    return s;
}

} // namespace pythia::service
