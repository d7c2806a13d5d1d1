#include "ladder.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return 0.5 * (lower + upper);
}

TailPick
pickTail(std::vector<double> samples)
{
    TailPick pick;
    pick.n = samples.size();
    if (samples.empty())
        return pick;
    std::sort(samples.begin(), samples.end());
    // Percentiles in tenths, highest first; nearest-rank definition.
    static constexpr std::size_t kTenths[] = {999, 990, 950, 900, 750};
    for (std::size_t tenths : kTenths) {
        const std::size_t rank = (tenths * pick.n + 999) / 1000;
        const std::size_t beyond = pick.n - rank;
        if (rank >= 1 && beyond >= 10) {
            pick.percentile = static_cast<double>(tenths) / 10.0;
            pick.value = samples[rank - 1];
            pick.beyond = beyond;
            return pick;
        }
    }
    const std::size_t rank = (pick.n + 1) / 2;
    pick.percentile = 50.0;
    pick.value = samples[rank - 1];
    pick.beyond = pick.n - rank;
    return pick;
}

void
ExactInputs::fill(std::vector<std::vector<float>>& buffers,
                  std::uint64_t seed)
{
    const std::size_t elems = buffers.empty() ? 0 : buffers[0].size();
    expected_.assign(elems, 0.0f);
    for (std::size_t r = 0; r < buffers.size(); ++r) {
        std::vector<float>& buffer = buffers[r];
        buffer.resize(elems);
        const std::uint64_t base = splitmix64(seed ^ splitmix64(r + 1));
        // One hash yields eight byte-sized draws.
        for (std::size_t i = 0; i < elems; i += 8) {
            const std::uint64_t bits = splitmix64(base + i);
            const std::size_t end = std::min(elems, i + 8);
            for (std::size_t j = i; j < end; ++j) {
                const int byte =
                    static_cast<int>((bits >> (8 * (j - i))) & 0xffu);
                const float value = static_cast<float>(byte % 17 - 8);
                buffer[j] = value;
                expected_[j] += value;
            }
        }
    }
}

std::size_t
ExactInputs::mismatches(
    const std::vector<std::vector<float>>& buffers) const
{
    std::size_t bad = 0;
    for (const std::vector<float>& buffer : buffers) {
        if (buffer.size() != expected_.size()) {
            bad += std::max<std::size_t>(1, expected_.size());
            continue;
        }
        for (std::size_t i = 0; i < buffer.size(); ++i)
            bad += buffer[i] != expected_[i] ? 1 : 0;
    }
    return bad;
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xffu;
        hash_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
}

Fingerprint
Fingerprint::current(const char* build_type)
{
    Fingerprint fp;
    fp.cores = static_cast<int>(std::thread::hardware_concurrency());
    fp.cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            fp.cpu = line.substr(line.find_first_not_of(' ', colon + 1));
        break;
    }
#if defined(__clang__)
    fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    fp.compiler = std::string("gcc ") + __VERSION__;
#else
    fp.compiler = "unknown";
#endif
    fp.build_type = build_type;
    return fp;
}

std::string
Fingerprint::json() const
{
    return "{\"cores\": " + std::to_string(cores) +
           ", \"cpu\": " + jsonString(cpu) +
           ", \"compiler\": " + jsonString(compiler) +
           ", \"build_type\": " + jsonString(build_type) + "}";
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
hostStealSeconds()
{
    // First line: "cpu user nice system idle iowait irq softirq steal ...".
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double field = 0.0;
    int fields = 0;
    stat >> cpu;
    while (fields < 8 && (stat >> field))
        ++fields;
    return fields == 8 ? field / static_cast<double>(sysconf(_SC_CLK_TCK))
                       : 0.0;
}

} // namespace perfbench
