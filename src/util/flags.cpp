#include "util/flags.h"

#include <cstdlib>
#include <limits>

#include "util/logging.h"

namespace ccube {
namespace util {

Flags::Flags(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        Entry entry;
        const std::string body = arg.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            entry.name = body.substr(0, eq);
            entry.value = body.substr(eq + 1);
            entry.has_value = true;
        } else {
            entry.name = body;
            // `--name value` form: consume the next token unless it
            // is itself a flag.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                entry.value = argv[++i];
                entry.has_value = true;
            }
        }
        CCUBE_CHECK(!entry.name.empty(), "empty flag name in " << arg);
        entries_.push_back(std::move(entry));
    }
}

const Flags::Entry*
Flags::find(const std::string& name) const
{
    for (const Entry& entry : entries_)
        if (entry.name == name)
            return &entry;
    return nullptr;
}

bool
Flags::has(const std::string& name) const
{
    return find(name) != nullptr;
}

std::string
Flags::get(const std::string& name, const std::string& fallback) const
{
    const Entry* entry = find(name);
    return entry && entry->has_value ? entry->value : fallback;
}

int
Flags::getInt(const std::string& name, int fallback) const
{
    const Entry* entry = find(name);
    if (!entry || !entry->has_value)
        return fallback;
    char* end = nullptr;
    const long value = std::strtol(entry->value.c_str(), &end, 10);
    CCUBE_CHECK(!entry->value.empty() && *end == '\0' &&
                    value >= std::numeric_limits<int>::min() &&
                    value <= std::numeric_limits<int>::max(),
                "--" << name << " wants an integer, got '"
                     << entry->value << "'");
    return static_cast<int>(value);
}

double
Flags::getDouble(const std::string& name, double fallback) const
{
    const Entry* entry = find(name);
    if (!entry || !entry->has_value)
        return fallback;
    char* end = nullptr;
    const double value = std::strtod(entry->value.c_str(), &end);
    CCUBE_CHECK(!entry->value.empty() && *end == '\0',
                "--" << name << " wants a number, got '"
                     << entry->value << "'");
    return value;
}

std::vector<std::string>
Flags::names() const
{
    std::vector<std::string> result;
    for (const Entry& entry : entries_)
        result.push_back(entry.name);
    return result;
}

} // namespace util
} // namespace ccube
