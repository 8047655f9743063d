#include "common/frame.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace pythia {

namespace {

/** read() up to @p n bytes, retrying EINTR. @return bytes read; short
 *  only at EOF. @throws FrameError on a read failure. */
std::size_t
readFull(int fd, std::uint8_t* p, std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw FrameError(std::string("frame: read: ") +
                             std::strerror(errno));
        }
        if (r == 0)
            break;
        got += static_cast<std::size_t>(r);
    }
    return got;
}

} // namespace

FrameHeader
encodeFrameHeader(std::uint32_t n)
{
    return {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
            static_cast<std::uint8_t>(n >> 16),
            static_cast<std::uint8_t>(n >> 24)};
}

std::uint32_t
decodeFrameHeader(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
checkFrameLength(std::size_t n)
{
    if (n == 0 || n > kMaxFramePayload)
        throw FrameError("frame: bad payload length " + std::to_string(n) +
                         " (limit " + std::to_string(kMaxFramePayload) +
                         ")");
}

bool
writeAll(int fd, const void* data, std::size_t n)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

bool
writeFrame(int fd, const std::vector<std::uint8_t>& payload)
{
    checkFrameLength(payload.size());
    const FrameHeader hdr =
        encodeFrameHeader(static_cast<std::uint32_t>(payload.size()));
    return writeAll(fd, hdr.data(), hdr.size()) &&
           writeAll(fd, payload.data(), payload.size());
}

std::optional<std::vector<std::uint8_t>>
readFrame(int fd)
{
    FrameHeader hdr;
    const std::size_t got = readFull(fd, hdr.data(), hdr.size());
    if (got == 0)
        return std::nullopt; // clean EOF at a frame boundary
    if (got < hdr.size())
        throw FrameError("frame: truncated header");
    const std::uint32_t n = decodeFrameHeader(hdr.data());
    checkFrameLength(n);
    std::vector<std::uint8_t> payload(n);
    if (readFull(fd, payload.data(), n) < n)
        throw FrameError("frame: truncated payload");
    return payload;
}

// --------------------------------------------------------- FrameReader

bool
FrameReader::fill(int fd)
{
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
    for (;;) {
        std::uint8_t tmp[65536];
        const ssize_t r = ::read(fd, tmp, sizeof tmp);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        if (r == 0)
            return false; // EOF
        buf_.insert(buf_.end(), tmp, tmp + r);
        // A short read drained the fd; the level-triggered loop
        // reports it again if more arrives.
        if (static_cast<std::size_t>(r) < sizeof tmp)
            return true;
    }
}

std::optional<std::vector<std::uint8_t>>
FrameReader::next()
{
    const std::size_t avail = buf_.size() - off_;
    if (avail < kFrameHeaderBytes)
        return std::nullopt;
    const std::uint32_t n = decodeFrameHeader(buf_.data() + off_);
    checkFrameLength(n);
    if (avail - kFrameHeaderBytes < n)
        return std::nullopt;
    const auto begin = buf_.begin() +
                       static_cast<std::ptrdiff_t>(off_ + kFrameHeaderBytes);
    off_ += kFrameHeaderBytes + n;
    return std::vector<std::uint8_t>(begin, begin + n);
}

// ---------------------------------------------------------- OutboxRing

void
OutboxRing::push(std::vector<std::uint8_t> payload)
{
    Slot s;
    s.header = encodeFrameHeader(static_cast<std::uint32_t>(payload.size()));
    s.payload = std::move(payload);
    bytes_ += s.header.size() + s.payload.size();
    slots_.push_back(std::move(s));
}

std::size_t
OutboxRing::gather(struct iovec* iov, std::size_t max_iov) const
{
    std::size_t n = 0;
    std::size_t off = head_off_;
    for (const Slot& s : slots_) {
        if (n == max_iov)
            break;
        // Header segment (may be partially sent).
        if (off < s.header.size()) {
            iov[n].iov_base =
                const_cast<std::uint8_t*>(s.header.data()) + off;
            iov[n].iov_len = s.header.size() - off;
            ++n;
            off = 0;
        } else {
            off -= s.header.size();
        }
        if (n == max_iov)
            break;
        // Payload segment. A zero-length payload contributes nothing.
        if (off < s.payload.size()) {
            iov[n].iov_base =
                const_cast<std::uint8_t*>(s.payload.data()) + off;
            iov[n].iov_len = s.payload.size() - off;
            ++n;
        }
        off = 0;
    }
    return n;
}

void
OutboxRing::consume(std::size_t n)
{
    bytes_ -= n;
    head_off_ += n;
    while (!slots_.empty()) {
        const std::size_t front =
            slots_.front().header.size() + slots_.front().payload.size();
        if (head_off_ < front)
            break;
        head_off_ -= front;
        slots_.pop_front();
    }
}

FlushResult
flushOutbox(int fd, OutboxRing& ring)
{
    // Batch size: IOV_MAX is at least 16 by POSIX; 64 segments (32
    // frames) per sendmsg is far below any real limit and keeps the
    // stack array small.
    constexpr std::size_t kMaxIov = 64;
    while (!ring.empty()) {
        struct iovec iov[kMaxIov];
        const std::size_t n = ring.gather(iov, kMaxIov);
        std::size_t batch = 0;
        for (std::size_t i = 0; i < n; ++i)
            batch += iov[i].iov_len;
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = n;
        // sendmsg instead of writev: writev has no MSG_NOSIGNAL, and a
        // vanished peer must not kill the process with SIGPIPE.
        const ssize_t wrote = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return FlushResult::kBlocked;
            if (errno == EINTR)
                continue;
            return FlushResult::kDead;
        }
        ring.consume(static_cast<std::size_t>(wrote));
        // A short write means the kernel buffer is full; wait for
        // writability instead of spinning on EAGAIN.
        if (!ring.empty() && static_cast<std::size_t>(wrote) < batch)
            return FlushResult::kBlocked;
    }
    return FlushResult::kDrained;
}

} // namespace pythia
