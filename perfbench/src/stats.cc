#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/json.h"

namespace perfbench {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    double logs = 0.0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(v.size()));
}

std::optional<double>
tailPercentile(std::vector<double> v, double p)
{
    size_t n = v.size();
    size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    if (rank == 0 || n - rank < static_cast<size_t>(kMinBeyond))
        return std::nullopt;
    std::sort(v.begin(), v.end());
    return v[rank - 1];
}

std::optional<double>
fastestComposite(const std::vector<std::vector<double>> &runs)
{
    if (runs.empty())
        return std::nullopt;
    std::vector<double> fastest = runs.front();
    for (const std::vector<double> &run : runs) {
        if (run.size() != fastest.size())
            return std::nullopt;
        for (size_t i = 0; i < run.size(); ++i)
            fastest[i] = std::min(fastest[i], run[i]);
    }
    return std::accumulate(fastest.begin(), fastest.end(), 0.0);
}

std::optional<double>
timeToTarget(const std::vector<Improvement> &imps, double finalBest)
{
    for (const Improvement &i : imps)
        if (i.cost == finalBest)
            return i.t;
    return std::nullopt;
}

double
searchSelfSeconds(const SpanTotals &s)
{
    return s.threads * s.batchWall - s.simInBatches;
}

double
reconcileShare(const SpanTotals &s)
{
    return (searchSelfSeconds(s) + s.simTotal) / (s.threads * s.runWall);
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            int64_t n)
{
    if (!std::isfinite(value))
        invalidate("metric " + name + " is not finite");
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m = {name, value, unit, n};
            return;
        }
    }
    metrics_.push_back({name, value, unit, n});
}

void
Report::addPercentiles(const std::string &name, const std::vector<double> &v,
                       const std::string &unit)
{
    int64_t n = static_cast<int64_t>(v.size());
    add(name + "_p50", median(v), unit, n);
    if (std::optional<double> p90 = tailPercentile(v, 0.9))
        add(name + "_p90", *p90, unit, n);
}

void
Report::job(const std::vector<std::string> &problems)
{
    ++attempted_;
    if (problems.empty())
        return;
    ++failed_;
    problems_.insert(problems_.end(), problems.begin(), problems.end());
}

void
Report::invalidate(const std::string &problem)
{
    valid_ = false;
    problems_.push_back(problem);
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
Report::json() const
{
    auto quote = [](const std::string &s) {
        return "\"" + cocco::JsonWriter::escape(s) + "\"";
    };
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"problems\": [";
    for (size_t i = 0; i < problems_.size(); ++i)
        out += (i ? ", " : "") + quote(problems_[i]);
    out += "], \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        char value[64] = "null";
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof value, "%.17g", m.value);
        out += (i ? ", " : "") + quote(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + quote(m.unit) +
               ", \"n\": " + std::to_string(m.n) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
