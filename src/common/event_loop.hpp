/**
 * @file
 * EventLoop — level-triggered epoll readiness over a persistent
 * interest set. The one event loop under both the shard coordinator
 * (one registration per worker result pipe, DESIGN.md §11.1) and the
 * pythia_serve connection loop (DESIGN.md §12.2.1): registrations are
 * added, changed and removed one fd at a time, and wait() reports only
 * the ready fds. Level-triggered on purpose: "writable" fires until an
 * outbox drains and "readable" until a buffer empties, so callers need
 * no drain-to-EAGAIN discipline.
 */
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace pythia {

/** One ready fd, as reported by EventLoop::wait(). */
struct IoEvent
{
    int fd = -1;
    void* ud = nullptr; ///< user data from add()
    bool in = false;    ///< readable, incoming connection, or hangup
    bool out = false;   ///< writable
    bool err = false;   ///< error — the fd needs attention even if
                        ///< in/out were not requested
};

/**
 * Not thread-safe: the owning loop thread is the only caller. In the
 * daemon, workers never touch sockets and wake the loop through its
 * self-pipe instead.
 */
class EventLoop
{
  public:
    /** @throws std::system_error when epoll_create1 fails. */
    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /** Register @p fd with initial interest; @p ud is returned
     *  verbatim in every IoEvent for this fd.
     *  @throws std::system_error on failure. */
    void add(int fd, void* ud, bool want_in, bool want_out);

    /** Change interest for a registered fd. Callers skip the call when
     *  nothing changed, so every mod() is a real transition.
     *  @throws std::system_error on failure. */
    void mod(int fd, bool want_in, bool want_out);

    /** Remove @p fd from the interest set. Call it before close(): a
     *  forked child may still hold the file, and epoll tracks files,
     *  not descriptors. */
    void del(int fd);

    /**
     * Block up to @p timeout_ms (-1 = forever) and put one IoEvent per
     * ready fd into @p out (cleared first).
     * @return number of ready fds; 0 on timeout or when a signal
     *         interrupted the wait.
     * @throws std::system_error on any other epoll_wait failure.
     */
    std::size_t wait(std::vector<IoEvent>& out, int timeout_ms);

  private:
    int ep_ = -1;
    std::unordered_map<int, void*> uds_;
};

} // namespace pythia
