/**
 * @file
 * WarmPool — the daemon's fingerprint-keyed shared warm-snapshot
 * cache (DESIGN.md §12). The first tenant to finish warmup for a spec
 * publishes its post-warmup SimSession snapshot (pythia-snap-v1
 * bytes) together with the warmup record prefix it consumed; every
 * later Open with the same fingerprint restores from the pool and
 * skips warmup bit-exactly — restore replays the stored prefix
 * through a fresh StreamWorkload, so the machine lands in the
 * identical post-warmup state a cold session would reach.
 *
 * Validation happens once, at admission: publish() runs the full
 * snap::readSnapshotBytes check (magic, version, checksum) over the
 * leader's image and stores the resulting immutable SnapshotFile. A
 * hit restores straight from it (SimSession::resumeFromValidated) —
 * no per-hit copy, no per-hit re-hash; only the fingerprint is
 * compared per restore. An image that fails admission is never
 * served: the entry is abandoned and its waiters elect a new leader.
 *
 * Concurrency contract (single-flight): when N identical Opens race,
 * exactly one caller gets Role::kLeader and runs warmup; the rest get
 * Role::kWaiter and register a callback that fires once the leader
 * publishes (→ re-acquire hits) or abandons (→ one waiter becomes the
 * new leader). Callbacks run outside the pool lock and must not
 * block — the server's waiters just re-schedule their openTask.
 *
 * Capacity: an LRU byte budget over *ready* entries (pending entries
 * are pinned — a leader is mid-warmup for them). Budget 0 disables
 * the pool entirely: every acquire is a leader and publish is a
 * no-op, restoring the pre-pool daemon behavior byte-for-byte.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "snapshot/snapshot.hpp"
#include "workloads/trace.hpp"

namespace pythia::service {

class WarmPool
{
  public:
    /** One published warm state: the validated post-warmup snapshot
     *  plus the warmup records the leader consumed producing it.
     *  Shared immutably — hits alias the same buffers, no copies. */
    struct Snapshot
    {
        std::shared_ptr<const snap::SnapshotFile> image;
        std::shared_ptr<const std::vector<wl::TraceRecord>> prefix;
    };

    /** What acquire() decided for this caller. */
    enum class Role
    {
        kHit,    ///< @p out filled; restore and skip warmup
        kLeader, ///< run warmup, then publish() or abandon()
        kWaiter, ///< callback fires when the leader settles
    };

    /** @p byte_budget caps ready-entry bytes (images + prefixes);
     *  0 disables the pool. */
    explicit WarmPool(std::size_t byte_budget);

    /**
     * Look up @p fingerprint. kHit fills @p out. kLeader creates a
     * pending entry this caller must settle via publish() or
     * abandon(). kWaiter stores @p on_settled; it is invoked (outside
     * the lock) after the leader settles, and the waiter re-acquires.
     */
    Role acquire(const std::string& fingerprint, Snapshot* out,
                 std::function<void()> on_settled);

    /**
     * Leader completed warmup: validate @p image once
     * (snap::readSnapshotBytes), make the entry ready, wake waiters,
     * then enforce the LRU budget. The check runs outside the pool
     * lock. @throws snap::SnapshotError when the image fails it — the
     * entry is abandoned first, so waiters re-elect a leader and the
     * image is never served.
     */
    void publish(const std::string& fingerprint,
                 std::vector<std::uint8_t> image,
                 std::vector<wl::TraceRecord> prefix);

    /** Leader failed or was evicted before publishing: drop the
     *  pending entry and wake waiters so one can take over. */
    void abandon(const std::string& fingerprint);

    struct Stats
    {
        std::uint64_t hits = 0;      ///< acquires served from a ready entry
        std::uint64_t misses = 0;    ///< acquires that became leader
        std::uint64_t waits = 0;     ///< acquires parked behind a leader
        std::uint64_t inserts = 0;   ///< publishes
        std::uint64_t evictions = 0; ///< LRU drops
        std::size_t bytes = 0;       ///< current ready-entry bytes
        std::size_t entries = 0;     ///< current entries (incl. pending)
    };

    Stats stats() const;

    bool enabled() const { return budget_ > 0; }

  private:
    struct Entry
    {
        Snapshot snap;
        bool ready = false;
        std::size_t bytes = 0;      ///< 0 while pending
        std::uint64_t last_use = 0; ///< LRU clock value
        std::vector<std::function<void()>> waiters;
    };

    /** Drop least-recently-used ready entries until under budget.
     *  Caller holds mu_. */
    void enforceBudget();

    const std::size_t budget_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> entries_;
    std::size_t bytes_ = 0;  ///< ready-entry bytes
    std::uint64_t clock_ = 0;
    Stats stats_;
};

/** Approximate retained bytes of one snapshot (image + prefix). */
std::size_t warmSnapshotBytes(const WarmPool::Snapshot& snap);

} // namespace pythia::service
