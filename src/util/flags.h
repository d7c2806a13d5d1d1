#ifndef CCUBE_UTIL_FLAGS_H_
#define CCUBE_UTIL_FLAGS_H_

/**
 * @file
 * Minimal command-line flag parser for the examples and harnesses.
 *
 * Supports `--name=value`, `--name value`, bare `--name` booleans,
 * and positional arguments. Unknown flags are kept (callers may
 * validate); values are typed on access with defaults.
 */

#include <string>
#include <vector>

namespace ccube {
namespace util {

/**
 * Parsed command line.
 */
class Flags
{
  public:
    /** Parses argv (argv[0] is skipped). */
    Flags(int argc, const char* const* argv);

    /** True when --name appeared (with or without a value). */
    bool has(const std::string& name) const;

    /** String value of --name, or @p fallback. */
    std::string get(const std::string& name,
                    const std::string& fallback = "") const;

    /** Integer value of --name, or @p fallback; dies on garbage, an
     *  empty value, or a value outside int range. */
    int getInt(const std::string& name, int fallback) const;

    /** Double value of --name, or @p fallback; dies on garbage or an
     *  empty value. */
    double getDouble(const std::string& name, double fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const
    {
        return positional_;
    }

    /** All flag names seen (for validation / usage messages). */
    std::vector<std::string> names() const;

  private:
    struct Entry {
        std::string name;
        std::string value;
        bool has_value = false;
    };

    const Entry* find(const std::string& name) const;

    std::vector<Entry> entries_;
    std::vector<std::string> positional_;
};

} // namespace util
} // namespace ccube

#endif // CCUBE_UTIL_FLAGS_H_
