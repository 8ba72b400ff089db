#include "trace.h"

namespace perfbench {

SimCounters
SimCounters::operator-(const SimCounters &o) const
{
    SimCounters d;
    for (int i = 0; i < kSimCalls; ++i) {
        d.calls[i] = calls[i] - o.calls[i];
        d.ns[i] = ns[i] - o.ns[i];
    }
    d.topNs = topNs - o.topNs;
    return d;
}

/** RAII span around one forwarded call. */
class SimSpan
{
  public:
    SimSpan(TimedCostModel &model, SimCall call)
        : model_(model), call_(call), outermost_(depth_++ == 0),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~SimSpan()
    {
        uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
        --depth_;
        model_.calls_[call_].fetch_add(1, std::memory_order_relaxed);
        model_.ns_[call_].fetch_add(ns, std::memory_order_relaxed);
        if (outermost_)
            model_.topNs_.fetch_add(ns, std::memory_order_relaxed);
    }

    SimSpan(const SimSpan &) = delete;
    SimSpan &operator=(const SimSpan &) = delete;

  private:
    static thread_local int depth_;

    TimedCostModel &model_;
    SimCall call_;
    bool outermost_;
    std::chrono::steady_clock::time_point start_;
};

thread_local int SimSpan::depth_ = 0;

cocco::SubgraphCost
TimedCostModel::subgraphCost(const std::vector<cocco::NodeId> &nodes,
                             const cocco::BufferConfig &buf)
{
    SimSpan span(*this, kSubgraphCost);
    return CostModel::subgraphCost(nodes, buf);
}

cocco::SubgraphBound
TimedCostModel::subgraphBound(const std::vector<cocco::NodeId> &nodes,
                              const cocco::BufferConfig &buf)
{
    SimSpan span(*this, kSubgraphBound);
    return CostModel::subgraphBound(nodes, buf);
}

bool
TimedCostModel::fits(const std::vector<cocco::NodeId> &nodes,
                     const cocco::BufferConfig &buf)
{
    SimSpan span(*this, kFits);
    return CostModel::fits(nodes, buf);
}

cocco::GraphCost
TimedCostModel::partitionCost(const cocco::Partition &p,
                              const cocco::BufferConfig &buf,
                              cocco::SubgraphCostCache *block_cache,
                              CostScope scope)
{
    SimSpan span(*this, kPartitionCost);
    return CostModel::partitionCost(p, buf, block_cache, scope);
}

SimCounters
TimedCostModel::counters() const
{
    SimCounters c;
    for (int i = 0; i < kSimCalls; ++i) {
        c.calls[i] = calls_[i].load(std::memory_order_relaxed);
        c.ns[i] = ns_[i].load(std::memory_order_relaxed);
    }
    c.topNs = topNs();
    return c;
}

void
SpanObserver::start()
{
    start_ = Clock::now();
    lastBatch_ = 0.0;
    simStartNs_ = simLastBatchNs_ = sim_ ? sim_->topNs() : 0;
    imps_.clear();
    batches_.clear();
}

double
SpanObserver::elapsed() const
{
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

void
SpanObserver::onImprove(const cocco::TracePoint &tp)
{
    imps_.push_back({elapsed(), tp.bestCost});
}

void
SpanObserver::onBatchDone(int64_t samples, double bestCost)
{
    (void)samples;
    (void)bestCost;
    double t = elapsed();
    batches_.push_back(t - lastBatch_);
    lastBatch_ = t;
    if (sim_)
        simLastBatchNs_ = sim_->topNs();
}

double
SpanObserver::simInBatches() const
{
    return static_cast<double>(simLastBatchNs_ - simStartNs_) * 1e-9;
}

} // namespace perfbench
