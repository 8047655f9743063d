/**
 * @file
 * Typed view over the key=value parameters of one parsed spec part
 * (common/spec.hpp), shared by every registry that constructs components
 * from spec strings — prefetchers (sim/prefetcher_registry.hpp) and
 * workloads (workloads/registry.hpp).
 *
 * Getters return the default when the key is absent and throw
 * std::invalid_argument (naming the owning component and the key) when
 * the value does not parse as the requested type.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pythia {

class SpecParams
{
  public:
    SpecParams() = default;
    SpecParams(std::string owner, std::map<std::string, std::string> kv)
        : owner_(std::move(owner)), kv_(std::move(kv))
    {
    }

    /** Name of the component these params configure (for messages). */
    const std::string& owner() const { return owner_; }

    bool has(const std::string& key) const;

    std::string getString(const std::string& key,
                          const std::string& dflt = "") const;
    std::int64_t getInt(const std::string& key, std::int64_t dflt) const;
    std::uint32_t getU32(const std::string& key, std::uint32_t dflt) const;
    std::uint64_t getU64(const std::string& key, std::uint64_t dflt) const;
    std::int32_t getI32(const std::string& key, std::int32_t dflt) const;
    double getDouble(const std::string& key, double dflt) const;

    /** Byte size with an optional K / M / G suffix ("256M", "4096"). */
    std::uint64_t getBytes(const std::string& key,
                           std::uint64_t dflt) const;

    /** '/'-separated integer list ("2/3/5" -> {2, 3, 5}). */
    std::vector<std::int32_t>
    getI32List(const std::string& key,
               const std::vector<std::int32_t>& dflt) const;

  private:
    [[noreturn]] void badValue(const std::string& key,
                               const std::string& value,
                               const char* expected) const;

    std::string owner_;
    std::map<std::string, std::string> kv_;
};

} // namespace pythia
