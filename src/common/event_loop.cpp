#include "common/event_loop.hpp"

#include <cerrno>
#include <cstdint>
#include <system_error>

#include <sys/epoll.h>
#include <unistd.h>

namespace pythia {

namespace {

[[noreturn]] void
throwErrno(const char* what)
{
    throw std::system_error(errno, std::generic_category(), what);
}

epoll_event
eventFor(int fd, bool want_in, bool want_out)
{
    epoll_event ev{};
    if (want_in)
        ev.events |= EPOLLIN;
    if (want_out)
        ev.events |= EPOLLOUT;
    ev.data.fd = fd;
    return ev;
}

} // namespace

EventLoop::EventLoop()
{
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0)
        throwErrno("epoll_create1");
}

EventLoop::~EventLoop()
{
    ::close(ep_);
}

void
EventLoop::add(int fd, void* ud, bool want_in, bool want_out)
{
    epoll_event ev = eventFor(fd, want_in, want_out);
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0)
        throwErrno("epoll_ctl(ADD)");
    uds_[fd] = ud;
}

void
EventLoop::mod(int fd, bool want_in, bool want_out)
{
    epoll_event ev = eventFor(fd, want_in, want_out);
    if (::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) != 0)
        throwErrno("epoll_ctl(MOD)");
}

void
EventLoop::del(int fd)
{
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
    uds_.erase(fd);
}

std::size_t
EventLoop::wait(std::vector<IoEvent>& out, int timeout_ms)
{
    out.clear();
    epoll_event evs[256];
    const int rc = ::epoll_wait(ep_, evs, 256, timeout_ms);
    if (rc < 0) {
        if (errno == EINTR)
            return 0;
        throwErrno("epoll_wait");
    }
    out.reserve(static_cast<std::size_t>(rc));
    for (int i = 0; i < rc; ++i) {
        IoEvent ev;
        ev.fd = evs[i].data.fd;
        const auto it = uds_.find(ev.fd);
        ev.ud = it == uds_.end() ? nullptr : it->second;
        // HUP counts as readable: a half-closed peer may still have
        // final frames queued, which read() drains down to EOF.
        ev.in = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
        ev.out = (evs[i].events & EPOLLOUT) != 0;
        ev.err = (evs[i].events & EPOLLERR) != 0;
        out.push_back(ev);
    }
    return out.size();
}

} // namespace pythia
