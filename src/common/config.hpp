/**
 * @file
 * Minimal key/value configuration registry.
 *
 * Plays the role of ChampSim's ini files in the original artifact: every
 * prefetcher and simulator component can be parameterized from string
 * key/value pairs, which the examples and benches use to build sweeps
 * ("customization via configuration registers", paper §6.6).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pythia {

/**
 * String-keyed configuration with typed accessors and defaults.
 */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string& key, const std::string& value);
    /** Set an integer key. */
    void setInt(const std::string& key, std::int64_t value);
    /** Set a floating-point key. */
    void setDouble(const std::string& key, double value);

    /** True if the key is present. */
    bool has(const std::string& key) const;

    /** String lookup with default. */
    std::string getString(const std::string& key,
                          const std::string& dflt = "") const;
    /** Integer lookup with default; throws std::invalid_argument on junk. */
    std::int64_t getInt(const std::string& key, std::int64_t dflt = 0) const;
    /** Double lookup with default; throws std::invalid_argument on junk. */
    double getDouble(const std::string& key, double dflt = 0.0) const;
    /** Bool lookup; accepts 0/1/true/false/yes/no. */
    bool getBool(const std::string& key, bool dflt = false) const;

    /**
     * Parse "key=value" tokens (e.g. command-line args); unknown formats
     * are ignored and reported in the return value.
     */
    std::vector<std::string> parseArgs(int argc, const char* const* argv);

    /**
     * Parse "key=value" command-line tokens, accepting only keys listed
     * in @p allowed. A malformed token or an unknown key (a typo like
     * "sim_scal=2" would otherwise silently run the defaults) throws
     * std::invalid_argument with a "did you mean" hint and the accepted
     * key list.
     */
    void parseArgsStrict(int argc, const char* const* argv,
                         const std::vector<std::string>& allowed);

  private:
    std::map<std::string, std::string> kv_;
};

} // namespace pythia
