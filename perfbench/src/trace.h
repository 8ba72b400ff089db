/**
 * @file
 * Spans recorded from outside the program: a CostModel that times its
 * virtual entry points before forwarding them to the real model, and a
 * SearchObserver that timestamps incumbent improvements and batch ends.
 * Both only observe, so a traced run's result equals the untraced one.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/cost_model.h"
#include "search/observer.h"
#include "stats.h"

namespace perfbench {

/** The timed CostModel entry points. */
enum SimCall
{
    kFits,
    kPartitionCost,
    kSubgraphCost,
    kSubgraphBound,
    kSimCalls
};

/** Counters of a TimedCostModel (nanoseconds are summed over threads). */
struct SimCounters
{
    uint64_t calls[kSimCalls] = {};
    uint64_t ns[kSimCalls] = {}; ///< inclusive of nested entry points
    uint64_t topNs = 0;          ///< outermost calls only: no double count

    SimCounters operator-(const SimCounters &o) const;
};

/**
 * A CostModel over (graph, accelerator) whose fits, partitionCost,
 * subgraphCost and subgraphBound are timed and then forwarded to the
 * base implementation. partitionCost calls subgraphCost, so per-entry
 * times nest; topNs counts each outermost call once.
 */
class TimedCostModel : public cocco::CostModel
{
  public:
    using CostModel::CostModel;

    cocco::SubgraphCost subgraphCost(const std::vector<cocco::NodeId> &nodes,
                                     const cocco::BufferConfig &buf) override;
    cocco::SubgraphBound
    subgraphBound(const std::vector<cocco::NodeId> &nodes,
                  const cocco::BufferConfig &buf) override;
    bool fits(const std::vector<cocco::NodeId> &nodes,
              const cocco::BufferConfig &buf) override;
    cocco::GraphCost partitionCost(const cocco::Partition &p,
                                   const cocco::BufferConfig &buf,
                                   cocco::SubgraphCostCache *block_cache,
                                   CostScope scope) override;

    SimCounters counters() const;

    /** Outermost-call nanoseconds so far (cheap; for span boundaries). */
    uint64_t topNs() const { return topNs_.load(std::memory_order_relaxed); }

  private:
    friend class SimSpan;
    std::atomic<uint64_t> calls_[kSimCalls] = {};
    std::atomic<uint64_t> ns_[kSimCalls] = {};
    std::atomic<uint64_t> topNs_{0};
};

/**
 * Observer of one search job: improvement and batch-end timestamps
 * (seconds since start()), and, given the job's TimedCostModel, the
 * cost-model time that fell inside the batch spans.
 */
class SpanObserver : public cocco::SearchObserver
{
  public:
    explicit SpanObserver(const TimedCostModel *sim = nullptr) : sim_(sim) {}

    /** Mark the job's start (call right before running it). */
    void start();

    void onImprove(const cocco::TracePoint &tp) override;
    void onBatchDone(int64_t samples, double bestCost) override;

    double elapsed() const;
    const std::vector<Improvement> &improvements() const { return imps_; }
    const std::vector<double> &batchSeconds() const { return batches_; }

    /** Cost-model seconds from start() to the last batch end. */
    double simInBatches() const;

  private:
    using Clock = std::chrono::steady_clock;

    const TimedCostModel *sim_;
    Clock::time_point start_ = Clock::now();
    double lastBatch_ = 0.0;
    uint64_t simStartNs_ = 0;
    uint64_t simLastBatchNs_ = 0;
    std::vector<Improvement> imps_;
    std::vector<double> batches_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
