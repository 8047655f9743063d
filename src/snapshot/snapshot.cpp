#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace pythia::snap {

namespace {

std::vector<std::uint8_t>
readAll(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw IoError("cannot open snapshot file: " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    if (f.bad())
        throw IoError("error reading snapshot file: " + path);
    return bytes;
}

/** Parse "k=v;k=v;..." preserving key order. */
std::vector<std::pair<std::string, std::string>>
parseFingerprint(const std::string& fp)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t start = 0;
    while (start < fp.size()) {
        std::size_t end = fp.find(';', start);
        if (end == std::string::npos)
            end = fp.size();
        const std::string field = fp.substr(start, end - start);
        const std::size_t eq = field.find('=');
        if (eq != std::string::npos)
            out.emplace_back(field.substr(0, eq), field.substr(eq + 1));
        else if (!field.empty())
            out.emplace_back(field, "");
        start = end + 1;
    }
    return out;
}

/** Header bytes before the fingerprint's length prefix. */
constexpr std::size_t kPreFingerprint = sizeof(kMagic) + 4;

} // namespace

std::vector<std::uint8_t>
writeSnapshotBytes(const std::string& fingerprint,
                   const std::function<void(Writer&)>& body)
{
    Writer w;
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(kFormatVersion);
    w.str(fingerprint);
    body(w);
    const std::uint64_t checksum =
        fnv1a(w.buffer().data(), w.buffer().size());
    w.u64(checksum);
    return w.take();
}

void
writeSnapshotFile(const std::string& path, const std::string& fingerprint,
                  const std::function<void(Writer&)>& body)
{
    const std::vector<std::uint8_t> image =
        writeSnapshotBytes(fingerprint, body);

    // Atomic publish: write a sibling temp file, then rename over the
    // target. Readers racing a writer see either the old complete file
    // or the new one, never a torn write.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            throw IoError("cannot create snapshot file: " + tmp);
        f.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
        f.flush();
        if (!f)
            throw IoError("error writing snapshot file: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw IoError("cannot rename snapshot file into place: " + path);
    }
}

SnapshotFile
readSnapshotFile(const std::string& path,
                 const std::string& expected_fingerprint)
{
    return readSnapshotBytes(readAll(path), expected_fingerprint, path);
}

SnapshotFile
readSnapshotBytes(std::vector<std::uint8_t> bytes,
                  const std::string& expected_fingerprint,
                  const std::string& label)
{
    const std::string& path = label; // diagnostics name the source
    SnapshotFile sf;
    sf.bytes = std::move(bytes);

    // 2. Minimum size + magic. The smallest valid file is header +
    //    empty fingerprint + checksum.
    if (sf.bytes.size() < kPreFingerprint + 8 + 8)
        throw CorruptError("snapshot corrupt: file too small (" +
                           std::to_string(sf.bytes.size()) +
                           " bytes): " + path);
    if (std::memcmp(sf.bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw CorruptError("not a pythia snapshot (bad magic): " + path);

    Reader header(sf.bytes.data(), sf.bytes.size());
    std::uint8_t skip_magic[sizeof(kMagic)];
    for (auto& b : skip_magic)
        b = header.u8();
    (void)skip_magic;

    // 3. Format version.
    sf.version = header.u32();
    if (sf.version != kFormatVersion)
        throw VersionError(
            "snapshot format version " + std::to_string(sf.version) +
            " is not supported (this build reads version " +
            std::to_string(kFormatVersion) + "): " + path);

    // 4. Trailing checksum over everything before the final 8 bytes.
    const std::size_t payload = sf.bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(sf.bytes[payload + i])
                  << (8 * i);
    const std::uint64_t computed = fnv1a(sf.bytes.data(), payload);
    if (stored != computed)
        throw CorruptError(
            "snapshot corrupt: checksum mismatch (file is truncated or "
            "bit-rotted; delete it and re-warm): " + path);

    // 5. Fingerprint.
    sf.fingerprint = header.str();
    if (!expected_fingerprint.empty())
        requireFingerprint(sf, expected_fingerprint, path);

    sf.body_offset = header.position();
    if (payload < sf.body_offset)
        throw CorruptError("snapshot corrupt: header past checksum: " +
                           path);
    sf.body_size = payload - sf.body_offset;
    return sf;
}

void
requireFingerprint(const SnapshotFile& file,
                   const std::string& expected_fingerprint,
                   const std::string& label)
{
    if (file.fingerprint == expected_fingerprint)
        return;
    const std::string diff =
        diffFingerprints(file.fingerprint, expected_fingerprint);
    throw FingerprintError(
        "snapshot fingerprint mismatch (stale or foreign snapshot, "
        "refusing to restore): " + label +
        (diff.empty() ? "" : "\n  " + diff));
}

std::string
diffFingerprints(const std::string& got, const std::string& expected)
{
    const auto a = parseFingerprint(got);
    const auto b = parseFingerprint(expected);
    std::map<std::string, std::string> am, bm;
    for (const auto& [k, v] : a)
        am[k] = v;
    for (const auto& [k, v] : b)
        bm[k] = v;

    std::ostringstream os;
    bool first = true;
    auto emit = [&](const std::string& line) {
        if (!first)
            os << "\n  ";
        first = false;
        os << line;
    };
    // Walk the expected key order first so the diff reads in spec order.
    for (const auto& [k, want] : b) {
        const auto it = am.find(k);
        if (it == am.end())
            emit(k + ": missing from snapshot (expected '" + want + "')");
        else if (it->second != want)
            emit(k + ": snapshot has '" + it->second +
                 "', this run expects '" + want + "'");
    }
    for (const auto& [k, v] : a)
        if (bm.find(k) == bm.end())
            emit(k + ": snapshot-only field ('" + v + "')");
    return os.str();
}

SnapshotInfo
inspectSnapshotFile(const std::string& path)
{
    SnapshotInfo info;
    const std::vector<std::uint8_t> bytes = readAll(path);
    info.file_bytes = bytes.size();

    if (bytes.size() < kPreFingerprint + 8 + 8)
        throw CorruptError("snapshot corrupt: file too small: " + path);
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw CorruptError("not a pythia snapshot (bad magic): " + path);

    Reader r(bytes.data(), bytes.size());
    for (std::size_t i = 0; i < sizeof(kMagic); ++i)
        (void)r.u8();
    info.version = r.u32();
    if (info.version != kFormatVersion)
        throw VersionError("snapshot format version " +
                           std::to_string(info.version) +
                           " is not supported: " + path);
    info.fingerprint = r.str();

    const std::size_t payload = bytes.size() - 8;
    for (int i = 0; i < 8; ++i)
        info.checksum_stored |=
            static_cast<std::uint64_t>(bytes[payload + i]) << (8 * i);
    info.checksum_computed = fnv1a(bytes.data(), payload);
    info.checksum_ok = info.checksum_stored == info.checksum_computed;

    // Walk the section body without decoding payloads.
    while (r.position() < payload) {
        SectionInfo s;
        s.name = r.str();
        s.length = r.u64();
        s.offset = r.position();
        if (s.length > payload - r.position())
            throw CorruptError(
                "snapshot corrupt: section '" + s.name +
                "' overruns the file: " + path);
        s.digest = fnv1a(bytes.data() + s.offset,
                         static_cast<std::size_t>(s.length));
        r.skip(s.length);
        info.sections.push_back(std::move(s));
    }
    return info;
}

} // namespace pythia::snap
