#include "common/config.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/spec.hpp"

namespace pythia {

void
Config::set(const std::string& key, const std::string& value)
{
    kv_[key] = value;
}

void
Config::setInt(const std::string& key, std::int64_t value)
{
    kv_[key] = std::to_string(value);
}

void
Config::setDouble(const std::string& key, double value)
{
    kv_[key] = std::to_string(value);
}

bool
Config::has(const std::string& key) const
{
    return kv_.count(key) > 0;
}

std::string
Config::getString(const std::string& key, const std::string& dflt) const
{
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
}

std::int64_t
Config::getInt(const std::string& key, std::int64_t dflt) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
        v = std::stoll(it->second, &pos);
    } catch (const std::exception&) {
        pos = 0; // fall through to the descriptive error below
    }
    if (pos != it->second.size() || it->second.empty())
        throw std::invalid_argument("non-integer config value for " + key +
                                    ": " + it->second);
    return v;
}

double
Config::getDouble(const std::string& key, double dflt) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(it->second, &pos);
    } catch (const std::exception&) {
        pos = 0; // fall through to the descriptive error below
    }
    if (pos != it->second.size() || it->second.empty())
        throw std::invalid_argument("non-numeric config value for " + key +
                                    ": " + it->second);
    return v;
}

bool
Config::getBool(const std::string& key, bool dflt) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return dflt;
    const std::string& s = it->second;
    if (s == "1" || s == "true" || s == "yes")
        return true;
    if (s == "0" || s == "false" || s == "no")
        return false;
    throw std::invalid_argument("non-boolean config value for " + key +
                                ": " + s);
}

std::vector<std::string>
Config::parseArgs(int argc, const char* const* argv)
{
    std::vector<std::string> ignored;
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            ignored.push_back(tok);
            continue;
        }
        set(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return ignored;
}

void
Config::parseArgsStrict(int argc, const char* const* argv,
                        const std::vector<std::string>& allowed)
{
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                "malformed argument '" + tok +
                "' (expected key=value; accepted keys: " +
                joinKeys(allowed) + ")");
        const std::string key = tok.substr(0, eq);
        if (std::find(allowed.begin(), allowed.end(), key) ==
            allowed.end())
            throw std::invalid_argument(
                "unknown argument '" + key + "'" +
                didYouMean(key, allowed) +
                " (accepted keys: " + joinKeys(allowed) + ")");
        set(key, tok.substr(eq + 1));
    }
}

} // namespace pythia
