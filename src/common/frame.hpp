/**
 * @file
 * The one framed transport under both wire protocols — pythia-shard-v1
 * (ShardCoordinator ↔ sweep_worker pipes, DESIGN.md §11) and
 * pythia-serve-v1 (pythia_serve ↔ clients, DESIGN.md §12).
 *
 * A frame is a u32 little-endian payload length followed by the
 * payload. A length of zero or above kMaxFramePayload is hostile input.
 * The module has three ways to move frames:
 *
 *  - blocking writeFrame() / readFrame(), for the shard worker and for
 *    tests that speak a protocol by hand;
 *  - FrameReader, the non-blocking accumulator: fill() drains a
 *    readable fd, next() yields whole frames by advancing an offset;
 *  - OutboxRing + flushOutbox(), the non-blocking vectored writer: one
 *    sendmsg() emits a whole batch of queued frames, and partial writes
 *    resume from a byte offset with exact byte accounting.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

struct iovec; // <sys/uio.h>

namespace pythia {

/** Framing violation: bad length, truncated stream, read failure. */
class FrameError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Hard ceiling on one frame's payload. Shard results and service
 *  batches are kilobytes, so anything near it is corruption or an
 *  attack, never data. */
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

inline constexpr std::size_t kFrameHeaderBytes = 4;
using FrameHeader = std::array<std::uint8_t, kFrameHeaderBytes>;

/** The length header of an @p n-byte payload. */
FrameHeader encodeFrameHeader(std::uint32_t n);

/** The payload length a 4-byte header at @p p announces (unchecked). */
std::uint32_t decodeFrameHeader(const std::uint8_t* p);

/** @throws FrameError unless 0 < @p n <= kMaxFramePayload. */
void checkFrameLength(std::size_t n);

/** write() all @p n bytes, retrying EINTR. False on any error. */
bool writeAll(int fd, const void* data, std::size_t n);

/** Write one frame (blocking). False when the peer is gone.
 *  @throws FrameError on an empty or oversized payload. */
bool writeFrame(int fd, const std::vector<std::uint8_t>& payload);

/** Read one frame (blocking). nullopt on clean EOF at a frame
 *  boundary. @throws FrameError on a truncated header or payload, a
 *  bad length or a read failure. */
std::optional<std::vector<std::uint8_t>> readFrame(int fd);

/**
 * Non-blocking frame accumulator for one fd. next() advances a read
 * offset; consumed bytes are dropped once per fill(), not once per
 * frame.
 */
class FrameReader
{
  public:
    /** Read everything @p fd has now. @return false at EOF or on a
     *  read error: the peer is gone. */
    bool fill(int fd);

    /** The next whole frame's payload, or nullopt while it is partial.
     *  @throws FrameError on a bad length header. */
    std::optional<std::vector<std::uint8_t>> next();

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t off_ = 0; ///< start of the first unconsumed byte
};

/**
 * Outbound frame queue, staged for vectored writes.
 *
 * push() takes a payload and stores it alongside its length header as
 * one slot; gather() exposes up to max_iov iovecs (header, payload,
 * header, payload, ...) starting at the partial-write offset;
 * consume() advances past n bytes written. bytes() counts every unsent
 * byte including headers — the number the daemon's max_outbox_bytes
 * backpressure compares against.
 */
class OutboxRing
{
  public:
    /** Stage one frame (length header derived from payload size). */
    void push(std::vector<std::uint8_t> payload);

    /**
     * Fill @p iov with up to @p max_iov segments of unsent bytes, in
     * order. The first segment starts at the partial-write offset.
     * @return segments filled (0 when empty).
     */
    std::size_t gather(struct iovec* iov, std::size_t max_iov) const;

    /** Drop @p n bytes from the front (the sendmsg return). */
    void consume(std::size_t n);

    bool empty() const { return slots_.empty(); }

    /** Unsent bytes, headers included. */
    std::size_t bytes() const { return bytes_; }

    /** Frames not yet fully written. */
    std::size_t frames() const { return slots_.size(); }

  private:
    struct Slot
    {
        FrameHeader header;
        std::vector<std::uint8_t> payload;
    };

    std::deque<Slot> slots_;
    std::size_t head_off_ = 0; ///< bytes of slots_.front() already sent
    std::size_t bytes_ = 0;    ///< total unsent (headers + payloads)
};

/** Outcome of one flush attempt against a socket. */
enum class FlushResult
{
    kDrained, ///< ring is now empty
    kBlocked, ///< kernel buffer full (EAGAIN / partial write)
    kDead,    ///< peer gone (EPIPE/ECONNRESET/...) — close the fd
};

/** Write as much of @p ring to the socket @p fd as the kernel accepts,
 *  in sendmsg() batches. Never blocks on a non-blocking socket and
 *  never raises SIGPIPE. */
FlushResult flushOutbox(int fd, OutboxRing& ring);

} // namespace pythia
