#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "obs/capture.h"

namespace ccube {
namespace obs {

namespace {

void
writeJsonKey(std::ostream& out, const std::string& s)
{
    out << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\';
        out << c;
    }
    out << '"';
}

} // namespace

MetricRegistry&
MetricRegistry::global()
{
    return Capture::current().metrics();
}

void
MetricRegistry::absorb(const MetricRegistry& other)
{
    if (&other == this)
        return;
    std::scoped_lock guard(mutex_, other.mutex_);
    for (const auto& [name, value] : other.counters_)
        counters_[name] += value;
    for (const auto& [name, value] : other.gauges_)
        gauges_[name] = value;
    for (const auto& [name, stats] : other.histograms_)
        histograms_[name].merge(stats);
    for (const auto& [name, histogram] : other.quantile_histograms_)
        quantile_histograms_[name].merge(histogram);
}

void
MetricRegistry::addCounter(const std::string& name, double delta)
{
    std::lock_guard<std::mutex> guard(mutex_);
    counters_[name] += delta;
}

double
MetricRegistry::counter(const std::string& name) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void
MetricRegistry::setGauge(const std::string& name, double value)
{
    std::lock_guard<std::mutex> guard(mutex_);
    gauges_[name] = value;
}

double
MetricRegistry::gauge(const std::string& name) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

bool
MetricRegistry::hasGauge(const std::string& name) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return gauges_.count(name) != 0;
}

void
MetricRegistry::observe(const std::string& name, double sample)
{
    std::lock_guard<std::mutex> guard(mutex_);
    histograms_[name].add(sample);
}

void
MetricRegistry::mergeHistogram(const std::string& name,
                               const util::RunningStats& stats)
{
    std::lock_guard<std::mutex> guard(mutex_);
    histograms_[name].merge(stats);
}

util::RunningStats
MetricRegistry::histogram(const std::string& name) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? util::RunningStats{} : it->second;
}

void
MetricRegistry::observeQuantile(const std::string& name, double sample)
{
    std::lock_guard<std::mutex> guard(mutex_);
    quantile_histograms_[name].add(sample);
}

void
MetricRegistry::mergeQuantileHistogram(const std::string& name,
                                       const LogHistogram& histogram)
{
    std::lock_guard<std::mutex> guard(mutex_);
    quantile_histograms_[name].merge(histogram);
}

LogHistogram
MetricRegistry::quantileHistogram(const std::string& name) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = quantile_histograms_.find(name);
    return it == quantile_histograms_.end() ? LogHistogram{}
                                            : it->second;
}

std::vector<std::pair<std::string, std::string>>
MetricRegistry::names() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(counters_.size() + gauges_.size() +
                histograms_.size() + quantile_histograms_.size());
    for (const auto& [name, value] : counters_)
        out.emplace_back(name, "counter");
    for (const auto& [name, value] : gauges_)
        out.emplace_back(name, "gauge");
    for (const auto& [name, stats] : histograms_)
        out.emplace_back(name, "histogram");
    for (const auto& [name, histogram] : quantile_histograms_)
        out.emplace_back(name, "qhist");
    std::sort(out.begin(), out.end());
    return out;
}

void
MetricRegistry::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    quantile_histograms_.clear();
}

void
MetricRegistry::writeCsv(std::ostream& out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    out << "name,kind,count,value,mean,min,max,stddev\n";
    for (const auto& [name, value] : counters_)
        out << name << ",counter,," << value << ",,,,\n";
    for (const auto& [name, value] : gauges_)
        out << name << ",gauge,," << value << ",,,,\n";
    for (const auto& [name, stats] : histograms_) {
        out << name << ",histogram," << stats.count() << ","
            << stats.sum() << "," << stats.mean() << ",";
        if (stats.count() > 0)
            out << stats.min() << "," << stats.max();
        else
            out << ",";
        out << "," << stats.stddev() << "\n";
    }
    // Quantile histograms reuse the fixed columns: `value` carries
    // p99 (the SLO-relevant figure); p50/p999 live in the JSON export.
    for (const auto& [name, histogram] : quantile_histograms_) {
        out << name << ",qhist," << histogram.count() << ","
            << histogram.quantile(0.99) << "," << histogram.mean()
            << ",";
        if (!histogram.empty())
            out << histogram.min() << "," << histogram.max();
        else
            out << ",";
        out << ",\n";
    }
}

void
MetricRegistry::writeJson(std::ostream& out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    out << "{\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (const auto& [name, value] : counters_) {
        sep();
        writeJsonKey(out, name);
        out << ": {\"kind\": \"counter\", \"value\": " << value << "}";
    }
    for (const auto& [name, value] : gauges_) {
        sep();
        writeJsonKey(out, name);
        out << ": {\"kind\": \"gauge\", \"value\": " << value << "}";
    }
    for (const auto& [name, stats] : histograms_) {
        sep();
        writeJsonKey(out, name);
        out << ": {\"kind\": \"histogram\", \"count\": "
            << stats.count() << ", \"sum\": " << stats.sum()
            << ", \"mean\": " << stats.mean();
        if (stats.count() > 0) {
            out << ", \"min\": " << stats.min()
                << ", \"max\": " << stats.max();
        }
        out << ", \"stddev\": " << stats.stddev() << "}";
    }
    for (const auto& [name, histogram] : quantile_histograms_) {
        sep();
        writeJsonKey(out, name);
        out << ": {\"kind\": \"qhist\", \"count\": "
            << histogram.count() << ", \"sum\": " << histogram.sum()
            << ", \"mean\": " << histogram.mean();
        if (!histogram.empty()) {
            out << ", \"min\": " << histogram.min()
                << ", \"max\": " << histogram.max()
                << ", \"p50\": " << histogram.quantile(0.50)
                << ", \"p99\": " << histogram.quantile(0.99)
                << ", \"p999\": " << histogram.quantile(0.999);
        }
        out << "}";
    }
    out << "\n}\n";
}

} // namespace obs
} // namespace ccube
