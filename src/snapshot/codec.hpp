/**
 * @file
 * Binary codec substrate of the pythia-snap-v1 snapshot format: a
 * little-endian fixed-width Writer/Reader pair with named, length-
 * prefixed sections, plus the typed error taxonomy every snapshot
 * consumer matches on.
 *
 * Design rules (DESIGN.md §9):
 *  - Fixed-width little-endian integers only; floating-point values
 *    travel as their IEEE-754 bit patterns, so a round trip is
 *    bit-exact on every supported platform.
 *  - Every component writes into its own named section whose byte
 *    length is recorded in the stream. Readers must consume a section
 *    exactly — a component that reads too little or too much corrupts
 *    silently otherwise, and leaveSection() turns that bug into a
 *    loud CorruptError.
 *  - All structural violations throw; no snapshot API returns a
 *    half-restored object.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace pythia::snap {

// ------------------------------------------------------------- errors

/** Base class of every snapshot failure. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** File could not be read or written. */
class IoError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Structurally invalid snapshot: bad magic, truncation, checksum
 *  mismatch, section under/over-consumption, impossible sizes. */
class CorruptError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Snapshot was written by an unsupported format version. */
class VersionError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Snapshot belongs to a different experiment configuration. */
class FingerprintError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** The simulated configuration contains a component (typically a
 *  prefetcher) that does not implement state serialization. */
class UnsupportedError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

// ----------------------------------------------------------- checksum

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/** FNV-1a 64-bit over @p n bytes, continuing from @p seed. */
inline std::uint64_t
fnv1a(const void* data, std::size_t n, std::uint64_t seed = kFnvOffset)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

/** FNV-1a 64-bit of a string (fingerprint hashing, cache file names). */
inline std::uint64_t
fnv1a(const std::string& s, std::uint64_t seed = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), seed);
}

// ----------------------------------------------------- word load/store

/** Load a little-endian fixed-width unsigned integer from @p p. One
 *  unaligned word load on little-endian hosts; big-endian hosts keep
 *  the byte-shift loop. */
template <typename T>
inline T
loadLe(const std::uint8_t* p)
{
    static_assert(std::is_unsigned_v<T>);
    T v;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
    }
    return v;
}

/** Store @p v little-endian at @p p (inverse of loadLe). */
template <typename T>
inline void
storeLe(std::uint8_t* p, T v)
{
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/** The unsigned integer a 4- or 8-byte vector element travels as. */
template <typename T>
using UintOf = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                  std::uint64_t>;

/** Decode one bool byte: 0 or 1, anything else is corrupt. */
inline bool
loadBool(std::uint8_t b)
{
    if (b > 1) [[unlikely]]
        throw CorruptError("snapshot corrupt: invalid bool encoding");
    return b != 0;
}

// ------------------------------------------------------------- Writer

/**
 * Append-only byte-buffer writer. Integers are emitted little-endian
 * at fixed width; strings and vectors carry a u64 length prefix.
 * Sections nest: beginSection(name) writes the name and reserves a
 * u64 length slot that endSection() patches.
 *
 * Every field is a single store into already-sized memory: buf_ runs
 * ahead of the written prefix len_, so the per-field cost is one
 * compare plus the store, not a vector resize. The run-ahead doubles
 * with the buffer from kMinStep up to kMaxStep bytes: small frames
 * stay small, the vector's capacity still grows geometrically
 * (amortized), and at most kMaxStep bytes are ever zero-filled ahead
 * of use, so a large image's untouched capacity never becomes
 * resident memory.
 */
class Writer
{
  public:
    void u8(std::uint8_t v) { *grow(1) = v; }

    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void f32(float v) { put(std::bit_cast<std::uint32_t>(v)); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

    void bytes(const void* data, std::size_t n)
    {
        if (n != 0)
            std::memcpy(grow(n), data, n);
    }

    void str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void vecU8(const std::vector<std::uint8_t>& v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }

    void vecU32(const std::vector<std::uint32_t>& v) { putVec(v); }
    void vecU64(const std::vector<std::uint64_t>& v) { putVec(v); }
    void vecF32(const std::vector<float>& v) { putVec(v); }
    void vecF64(const std::vector<double>& v) { putVec(v); }

    /** Open a named section; must be balanced by endSection(). */
    void beginSection(const std::string& name)
    {
        str(name);
        open_.push_back(len_);
        u64(0); // length placeholder, patched by endSection()
    }

    /** Close the innermost open section, patching its length. */
    void endSection()
    {
        if (open_.empty())
            throw std::logic_error("snap::Writer: endSection underflow");
        const std::size_t at = open_.back();
        open_.pop_back();
        storeLe(buf_.data() + at,
                static_cast<std::uint64_t>(len_ - at - 8));
    }

    /** The accumulated bytes; sections must all be closed. */
    const std::vector<std::uint8_t>& buffer() const
    {
        requireClosed();
        buf_.resize(len_); // drop the unwritten tail; capacity stays
        return buf_;
    }

    /** Move the accumulated bytes out (no copy); sections must all be
     *  closed. The writer is empty afterwards. */
    std::vector<std::uint8_t> take()
    {
        requireClosed();
        buf_.resize(len_);
        len_ = 0;
        return std::move(buf_);
    }

    std::size_t size() const { return len_; }

  private:
    /** @return where the next @p n bytes go, already accounted. */
    std::uint8_t* grow(std::size_t n)
    {
        if (buf_.size() - len_ < n) [[unlikely]]
            buf_.resize(len_ +
                        std::max(n, std::clamp(len_, kMinStep, kMaxStep)));
        std::uint8_t* p = buf_.data() + len_;
        len_ += n;
        return p;
    }

    template <typename T>
    void put(T v)
    {
        storeLe(grow(sizeof v), v);
    }

    template <typename T>
    void putVec(const std::vector<T>& v)
    {
        u64(v.size());
        if constexpr (std::endian::native == std::endian::little) {
            bytes(v.data(), v.size() * sizeof(T));
        } else {
            for (T x : v)
                put(std::bit_cast<UintOf<T>>(x));
        }
    }

    void requireClosed() const
    {
        if (!open_.empty())
            throw std::logic_error("snap::Writer: unclosed section");
    }

    static constexpr std::size_t kMinStep = 64;
    static constexpr std::size_t kMaxStep = 4096;

    // Sized bytes; [0, len_) is written. mutable: buffer() trims
    // the unwritten tail so callers see exactly the encoded bytes.
    mutable std::vector<std::uint8_t> buf_;
    std::size_t len_ = 0;
    std::vector<std::size_t> open_;
};

// ------------------------------------------------------------- Reader

/**
 * Bounds-checked reader over a byte span. Any read past the end of
 * the buffer — or past the end of the innermost entered section —
 * throws CorruptError; leaveSection() additionally requires the
 * section to be consumed exactly.
 *
 * Every read checks its bounds, but the check is one inlined compare
 * against the cached end of the innermost section; the error message
 * is built out of line. Fixed-width values are single word loads and
 * vectors are one bulk copy after one count check.
 */
class Reader
{
  public:
    Reader(const std::uint8_t* data, std::size_t size)
        : data_(data), end_(size)
    {
    }

    std::uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool boolean() { return loadBool(u8()); }

    float f32() { return std::bit_cast<float>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string str()
    {
        const std::size_t n = count(1);
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    std::vector<std::uint8_t> vecU8() { return getVec<std::uint8_t>(); }
    std::vector<std::uint32_t> vecU32() { return getVec<std::uint32_t>(); }
    std::vector<std::uint64_t> vecU64() { return getVec<std::uint64_t>(); }
    std::vector<float> vecF32() { return getVec<float>(); }
    std::vector<double> vecF64() { return getVec<double>(); }

    /**
     * Read a u64 element count and check that @p element_bytes times
     * it fits in what is left of the current section, without the
     * multiplication (so no count can wrap the check). Length prefixes
     * from files and sockets go through here before any allocation:
     * an impossible count is a CorruptError, never a huge reserve().
     * @p element_bytes is the minimum encoded size of one element.
     */
    std::size_t count(std::size_t element_bytes)
    {
        const std::uint64_t n = u64();
        if (n > remaining() / element_bytes) [[unlikely]]
            badCount(n, element_bytes);
        return static_cast<std::size_t>(n);
    }

    /**
     * Claim the next @p n bytes for the caller to decode in place
     * (loadLe, loadBool): one bounds check for a whole fixed-layout
     * array instead of one per field.
     */
    const std::uint8_t* raw(std::size_t n)
    {
        need(n);
        const std::uint8_t* p = data_ + pos_;
        pos_ += n;
        return p;
    }

    /**
     * Enter the next section, validating its name against @p expected.
     * Reads inside the section are bounded by its recorded length.
     */
    void enterSection(const std::string& expected)
    {
        const std::string name = str();
        if (name != expected)
            throw CorruptError("snapshot corrupt: expected section '" +
                               expected + "', found '" + name + "'");
        const std::uint64_t len = u64();
        need(len);
        section_end_.push_back(end_);
        end_ = pos_ + static_cast<std::size_t>(len);
    }

    /** Leave the innermost section; it must be consumed exactly. */
    void leaveSection()
    {
        if (section_end_.empty())
            throw std::logic_error("snap::Reader: leaveSection underflow");
        const std::size_t end = end_;
        end_ = section_end_.back();
        section_end_.pop_back();
        if (pos_ != end)
            throw CorruptError(
                "snapshot corrupt: section length mismatch (" +
                std::to_string(end - pos_) + " bytes unconsumed)");
    }

    /** Advance @p n bytes without decoding (tools walking sections). */
    void skip(std::uint64_t n)
    {
        need(n);
        pos_ += static_cast<std::size_t>(n);
    }

    /** Bytes left in the current section (or the whole buffer). */
    std::size_t remaining() const { return end_ - pos_; }

    bool atEnd() const { return remaining() == 0; }

    std::size_t position() const { return pos_; }

  private:
    void need(std::uint64_t n) const
    {
        if (n > end_ - pos_) [[unlikely]]
            truncated(n);
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    truncated(std::uint64_t n) const
    {
        throw CorruptError("snapshot corrupt: truncated (wanted " +
                           std::to_string(n) + " bytes, " +
                           std::to_string(end_ - pos_) + " available)");
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    badCount(std::uint64_t n, std::size_t element_bytes) const
    {
        throw CorruptError("snapshot corrupt: count " + std::to_string(n) +
                           " of " + std::to_string(element_bytes) +
                           "-byte elements exceeds the " +
                           std::to_string(end_ - pos_) +
                           " bytes available");
    }

    template <typename T>
    T get()
    {
        need(sizeof(T));
        const T v = loadLe<T>(data_ + pos_);
        pos_ += sizeof(T);
        return v;
    }

    template <typename T>
    std::vector<T> getVec()
    {
        const std::size_t n = count(sizeof(T));
        std::vector<T> v(n);
        if constexpr (std::endian::native == std::endian::little ||
                      sizeof(T) == 1) {
            if (n != 0)
                std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
            pos_ += n * sizeof(T);
        } else {
            for (T& x : v)
                x = std::bit_cast<T>(get<UintOf<T>>());
        }
        return v;
    }

    const std::uint8_t* data_;
    std::size_t pos_ = 0;
    std::size_t end_; ///< end of the innermost section (or the buffer)
    std::vector<std::size_t> section_end_; ///< enclosing sections' ends
};

} // namespace pythia::snap
