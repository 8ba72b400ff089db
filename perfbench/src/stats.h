/**
 * @file
 * The benchmark's summary code: order statistics, the time-to-target
 * rule, the self-time split of a traced search, and the Report every
 * workload fills (metrics with unit and sample count, plus the
 * correctness tally). Pure functions, tested in tests/stats_test.cc.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a tail percentile before it is
 *  reported (so a p90 needs at least 100 samples). */
constexpr int kMinBeyond = 10;

/** Median (mean of the two middle values for even counts); +inf
 *  samples sort last. Requires a non-empty vector. */
double median(std::vector<double> v);

/** Arithmetic mean. Requires a non-empty vector. */
double mean(const std::vector<double> &v);

/** Geometric mean of positive values. Requires a non-empty vector. */
double geomean(const std::vector<double> &v);

/**
 * Nearest-rank @p p quantile (0 < p < 1) of @p v. Failed or refused
 * requests enter as +inf, so they count against every limit. Returns
 * nothing when fewer than kMinBeyond samples rank above it.
 */
std::optional<double> tailPercentile(std::vector<double> v, double p);

/**
 * The fastest composite of identical runs. Each run is the list of its
 * step times, the same steps in the same order; the composite sums each
 * step's fastest time over the runs. Host contention only ever adds
 * time and comes in stretches shorter than a run, so this estimates the
 * run's own cost far more steadily than any one run's total. Nothing
 * when there are no runs or they disagree on the step count.
 */
std::optional<double>
fastestComposite(const std::vector<std::vector<double>> &runs);

/** One incumbent improvement of a search job. */
struct Improvement
{
    double t = 0.0;    ///< seconds since the job started
    double cost = 0.0; ///< the new incumbent objective
};

/**
 * Time to target: the first improvement whose cost equals the job's
 * final best exactly. Nothing when no improvement reached it (the
 * run's record and its result disagree).
 */
std::optional<double> timeToTarget(const std::vector<Improvement> &imps,
                                   double finalBest);

/** Totals of one traced search run, all in seconds. */
struct SpanTotals
{
    int threads = 1;          ///< evaluation threads of the run
    double runWall = 0.0;     ///< the run, start to result
    double batchWall = 0.0;   ///< sum of the batch spans
    double simInBatches = 0.0; ///< cost-model time inside batch spans,
                               ///< summed over threads
    double simTotal = 0.0;    ///< all cost-model time of the run
};

/** Search self time: thread-time of the batch spans minus the
 *  cost-model calls inside them. */
double searchSelfSeconds(const SpanTotals &s);

/** (self + cost model) / (threads x wall): how much of the run's
 *  thread-time the spans account for; 1 means all of it. */
double reconcileShare(const SpanTotals &s);

/** One measured metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t n = 1; ///< samples the value summarizes
};

/** What one benchmark process measured and whether its outputs held. */
class Report
{
  public:
    /** Record a metric; a later add() of the same name replaces it. A
     *  non-finite value invalidates the run. */
    void add(const std::string &name, double value, const std::string &unit,
             int64_t n = 1);

    /** Record <name>_p50 and, when enough samples lie beyond it,
     *  <name>_p90 of a non-empty @p v. */
    void addPercentiles(const std::string &name, const std::vector<double> &v,
                        const std::string &unit);

    /** Tally one checked job: it failed when @p problems is non-empty. */
    void job(const std::vector<std::string> &problems);

    /** A run-level failure that is not one job's (e.g. a lagging load
     *  generator): the run is not correct. */
    void invalidate(const std::string &problem);

    const std::vector<Metric> &metrics() const { return metrics_; }
    const Metric *find(const std::string &name) const;
    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && valid_; }

    /** One-line JSON: correct, attempted, failed, problems and every
     *  metric as {"value", "unit", "n"}, values with all their digits. */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    bool valid_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
