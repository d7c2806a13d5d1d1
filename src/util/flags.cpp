#include "util/flags.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/logging.h"

namespace ccube {
namespace util {

namespace {

/**
 * Strict number parsing shared by Flags and the environment readers:
 * all of @p text must parse, empty text is an error, and the value
 * must fit (int range; a finite double). Dies with a message naming
 * @p what (the flag or variable).
 */
int
parseInt(const std::string& text, const std::string& what)
{
    char* end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    CCUBE_CHECK(!text.empty() && *end == '\0' &&
                    value >= std::numeric_limits<int>::min() &&
                    value <= std::numeric_limits<int>::max(),
                what << " wants an integer, got '" << text << "'");
    return static_cast<int>(value);
}

double
parseDouble(const std::string& text, const std::string& what)
{
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    CCUBE_CHECK(!text.empty() && *end == '\0' && std::isfinite(value),
                what << " wants a number, got '" << text << "'");
    return value;
}

/** The set, non-empty value of environment variable @p name, or null. */
const char*
envValue(const char* name)
{
    const char* value = std::getenv(name);
    return value != nullptr && *value != '\0' ? value : nullptr;
}

} // namespace

int
envInt(const char* name, int fallback)
{
    const char* text = envValue(name);
    if (text == nullptr)
        return fallback;
    const int value = parseInt(text, name);
    CCUBE_CHECK(value >= 0, name << " must not be negative, got '"
                                 << text << "'");
    return value;
}

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
    return parseInt(entry->value, "--" + name);
}

double
Flags::getDouble(const std::string& name, double fallback) const
{
    const Entry* entry = find(name);
    if (!entry || !entry->has_value)
        return fallback;
    return parseDouble(entry->value, "--" + name);
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
