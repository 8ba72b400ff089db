/**
 * @file
 * The analytical cost model (paper Section 5.1.2): per-subgraph
 * external memory access (EMA), energy, latency and bandwidth, and
 * their aggregation over a partition, including multi-core weight
 * sharing and batch processing.
 *
 * Evaluation is split into two phases for search efficiency:
 *   1. a buffer-capacity-independent SubgraphProfile (tile-flow
 *      footprint, traffic, MACs), memoized by node-set hash;
 *   2. a cheap per-configuration assembly into SubgraphCost.
 *
 * EMA of a subgraph = boundary input tensors + escaping output
 * tensors + layer weights (Figure 1's "Min EMA = #Wgt + #In + #Out"),
 * with reload penalties when a single layer exceeds the buffers.
 * Energy = DRAM + global-buffer + weight-buffer + MAC terms.
 * Latency per subgraph = max(compute cycles, DRAM cycles).
 */

#ifndef COCCO_SIM_COST_MODEL_H
#define COCCO_SIM_COST_MODEL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mem/buffer_config.h"
#include "partition/partition.h"
#include "sim/accelerator.h"

namespace cocco {

/** Optimization metric M of Formulas 1 and 2. */
enum class Metric
{
    EMA,    ///< external memory access, bytes
    Energy, ///< total energy, pJ
};

/** Buffer-capacity-independent summary of one subgraph. */
struct SubgraphProfile
{
    int nodeCount = 0;
    int64_t inBytes = 0;      ///< boundary input tensors
    int64_t outBytes = 0;     ///< escaping output tensors
    int64_t weightBytes = 0;  ///< resident weights
    int64_t macs = 0;

    int64_t actFootprintBytes = 0; ///< best-scheme MAIN+SIDE total
    int numRegions = 0;
    int outTile = 1;

    int64_t glbTraffic = 0;   ///< global-buffer bytes moved
    int64_t wbufTraffic = 0;  ///< weight-buffer bytes moved

    /** PE-array compute cycles per sample (spatial mapper result,
     *  includes padding-induced under-utilization). */
    int64_t mappedCycles = 0;

    // Reload modelling for oversized singleton layers.
    int kernel = 1;
    int stride = 1;
};

/** Cost of one subgraph under a concrete buffer configuration. */
struct SubgraphCost
{
    bool feasible = false;    ///< fits buffers and region limit
    int64_t emaBytes = 0;
    double energyPj = 0.0;
    double computeCycles = 0.0;
    double commCycles = 0.0;
    double latencyCycles = 0.0;
};

/**
 * Boundary-only summary of a subgraph: the terms that survive any
 * tiling (boundary tensors, weights, MACs). Much cheaper than a full
 * SubgraphProfile — no scheme derivation, no spatial mapping — and
 * sufficient both for the roofline lower bound and for the
 * weight-residency terms of partition-level bookkeeping.
 */
struct BoundProfile
{
    int64_t inBytes = 0;     ///< boundary input tensors
    int64_t outBytes = 0;    ///< escaping output tensors
    int64_t weightBytes = 0; ///< resident weights
    int64_t macs = 0;
};

/**
 * Roofline lower bound on a subgraph's cost under a buffer
 * configuration: ephemeral intermediates are free, boundary tensors
 * and weights must cross DRAM at least once, and compute can never
 * beat macs / peak throughput. Every field lower-bounds the
 * corresponding SubgraphCost field of any *feasible* evaluation of
 * the same node set — and, summed over blocks, of any partition
 * refining it — so a bound that already exceeds an incumbent
 * objective proves the candidate cannot win.
 */
struct SubgraphBound
{
    int64_t emaBytes = 0;
    double energyPj = 0.0;
    double computeCycles = 0.0;
    double commCycles = 0.0;
    double latencyCycles = 0.0;

    /** Lower bound on the metric value (bytes for EMA, pJ for
     *  Energy). */
    double
    metricValue(Metric m) const
    {
        return m == Metric::EMA ? static_cast<double>(emaBytes) : energyPj;
    }
};

/** Per-model pruning counters (monotonic; see CostModel::pruneStats). */
struct CostPruneStats
{
    uint64_t fitsShortCircuits = 0; ///< fits() decided without profiling
    uint64_t schemesPruned = 0;     ///< tile candidates aborted early

    CostPruneStats &
    operator+=(const CostPruneStats &o)
    {
        fitsShortCircuits += o.fitsShortCircuits;
        schemesPruned += o.schemesPruned;
        return *this;
    }
};

/** Aggregate cost of a whole partition. */
struct GraphCost
{
    bool feasible = false;    ///< every subgraph feasible
    int subgraphs = 0;
    int64_t emaBytes = 0;
    double energyPj = 0.0;
    double latencyCycles = 0.0;
    double avgBwGBps = 0.0;

    /** Peak per-subgraph DRAM demand: this subgraph's activation I/O
     *  plus the next subgraph's weight prefetch, over its execution
     *  window (paper Section 5.1.2's bandwidth accounting). */
    double peakBwGBps = 0.0;

    /** Latency in milliseconds at @p clock_ghz. */
    double latencyMs(double clock_ghz = 1.0) const;

    /** Metric value (bytes for EMA, pJ for Energy). */
    double metricValue(Metric m) const;
};

/**
 * Formula 2 objective: BUF_SIZE + alpha * metric. Infeasible
 * partitions return a large finite penalty so search can still rank.
 */
double objective(const GraphCost &cost, const BufferConfig &buf,
                 double alpha, Metric m);

/** Penalty objective value assigned to infeasible partitions. */
constexpr double kInfeasiblePenalty = 1e18;

/**
 * Hook for an external per-(subgraph, buffer) cost cache. When a
 * partition evaluation only changed a few blocks relative to earlier
 * evaluations, the unchanged blocks' SubgraphCosts are served from
 * here instead of being reassembled (incremental re-evaluation; the
 * EvalCache in src/search/eval_cache.h is the production
 * implementation). Implementations must be thread-safe and must
 * return exactly the value that was inserted — a cache may evict or
 * miss freely, but never alias two different keys.
 */
class SubgraphCostCache
{
  public:
    virtual ~SubgraphCostCache() = default;

    /** @return true and fill @p out when (nodes, buf) is cached. */
    virtual bool lookupBlock(const std::vector<NodeId> &nodes,
                             const BufferConfig &buf, SubgraphCost *out) = 0;

    /** Record the cost of (nodes, buf). */
    virtual void insertBlock(const std::vector<NodeId> &nodes,
                             const BufferConfig &buf,
                             const SubgraphCost &cost) = 0;
};

/**
 * Per-core / interconnect accounting of an evaluated partition: how
 * busy each core is over the execution window and what share of the
 * totals the crossbar contributes. For a single core every crossbar
 * term is exactly zero.
 */
struct DeploymentBreakdown
{
    int cores = 1;

    /** Per-core MAC utilization over the whole execution window
     *  (useful work / peak; equal weight shards, so heterogeneous
     *  cores differ through their compute throughput). */
    std::vector<double> coreUtilization;

    double crossbarEnergyPj = 0.0; ///< total crossbar energy
    double crossbarCycles = 0.0;   ///< total crossbar serialization

    double crossbarEnergyShare = 0.0;  ///< of the partition's energy
    double crossbarLatencyShare = 0.0; ///< of the partition's latency
};

/**
 * Memoizing evaluator for one (graph, accelerator) pair.
 *
 * Thread safety: profile(), subgraphCost(), fits() and
 * partitionCost() may be called concurrently from any number of
 * threads. The profile memo is sharded across striped locks keyed by
 * the node-set hash, so concurrent callers share (rather than
 * duplicate) memoized profiles; a profile is computed at most once.
 * Entries are keyed on the canonical (sorted) node set and compared
 * by value on lookup, so a 64-bit hash collision can never alias two
 * different subgraphs. Memo entries never move once inserted, so a
 * singleton's entry is also published, with release semantics, in a
 * per-node table of atomic pointers: after its first use,
 * profile({v}) is one acquire load with no lock.
 *
 * The evaluation entry points (subgraphCost/fits/partitionCost) and
 * the deployment hooks (contextHash/breakdown/coreComputeCycles) are
 * virtual so a scale-out evaluator (DeploymentCostModel,
 * sim/deployment.h) can compose per-core models behind the same
 * interface the whole search stack already consumes.
 */
class CostModel
{
  public:
    CostModel(const Graph &g, const AcceleratorConfig &accel);
    virtual ~CostModel() = default;

    /** The platform being modelled (for a deployment: the aggregate
     *  view — core 0's configuration with the deployment folded in). */
    const AcceleratorConfig &accel() const { return accel_; }

    /** The workload graph. */
    const Graph &graph() const { return g_; }

    /** Capacity-independent profile of a subgraph (memoized). */
    const SubgraphProfile &profile(const std::vector<NodeId> &nodes);

    /** Boundary-only summary of a subgraph (memoized; derived from an
     *  already-memoized full profile when one exists). */
    const BoundProfile &boundProfile(const std::vector<NodeId> &nodes);

    /** Cost of one subgraph under @p buf. */
    virtual SubgraphCost subgraphCost(const std::vector<NodeId> &nodes,
                                      const BufferConfig &buf);

    /**
     * Cheap roofline lower bound on subgraphCost (see SubgraphBound).
     * Needs only the boundary summary — no tile-flow enumeration, no
     * spatial mapping — so it is orders of magnitude cheaper than an
     * exact evaluation. A deployment model composes per-core bounds
     * gated on the slowest core.
     */
    virtual SubgraphBound subgraphBound(const std::vector<NodeId> &nodes,
                                        const BufferConfig &buf);

    /**
     * Lower bound on partitionCost(p, buf) — and on the cost of every
     * refinement of @p p: the per-block roofline bounds, summed.
     * Splitting a block only adds boundary traffic while its weights
     * and MACs are exact sums, so the bound also holds for any
     * partition that repair (which only ever splits) derives from
     * @p p. Dispatches through subgraphBound, so deployment models
     * compose per-core bounds automatically. Backs the engine's
     * incumbent screening (EvalEngine::objectiveBound) and the
     * two-step driver's candidate rejection.
     */
    SubgraphBound partitionLowerBound(const Partition &p,
                                      const BufferConfig &buf);

    /** Whether a subgraph fits @p buf (residency + region limit). */
    virtual bool fits(const std::vector<NodeId> &nodes,
                      const BufferConfig &buf);

    /**
     * How much of partitionCost a caller needs. Objective restricts
     * the result to the fields the search objective and a frontier
     * point read: per-block work stops as soon as the partition is
     * known infeasible, and the bandwidth summaries (avgBwGBps,
     * peakBwGBps) are skipped. For a feasible partition every other
     * field (feasible, subgraphs, emaBytes, energyPj, latencyCycles)
     * is complete and bit-identical to a Full evaluation; for an
     * infeasible one only `feasible` is.
     */
    enum class CostScope
    {
        Full,      ///< every GraphCost field
        Objective, ///< feasibility + metric sums only
    };

    /**
     * Aggregate cost of a partition under @p buf. When @p block_cache
     * is non-null, multi-node blocks' SubgraphCosts are looked up
     * there first and inserted on miss, so re-evaluating a partition
     * that shares blocks with earlier ones only assembles the changed
     * blocks. Singleton blocks never reach @p block_cache: they go to
     * subgraphCost directly, which costs one table load and an
     * assembly, less than any cache probe.
     */
    virtual GraphCost partitionCost(const Partition &p,
                                    const BufferConfig &buf,
                                    SubgraphCostCache *block_cache =
                                        nullptr,
                                    CostScope scope = CostScope::Full);

    /**
     * Toggle the bound-based work-skipping fast paths (trivial fits()
     * answers, tile candidates aborted against the incumbent
     * footprint). Pruning never changes any produced value — bounds
     * only skip work that cannot win — so models with different
     * settings still agree bit-for-bit; the switch exists so the
     * claim stays testable. Off by default; the evaluation engine
     * sets it from EvalOptions::pruning. A deployment model forwards
     * the setting to its per-core models.
     */
    virtual void
    setPruning(bool on)
    {
        prune_.store(on, std::memory_order_relaxed);
    }

    /** Whether the work-skipping fast paths are enabled. */
    bool
    pruning() const
    {
        return prune_.load(std::memory_order_relaxed);
    }

    /** Snapshot of the pruning counters (a deployment model sums its
     *  per-core models' counters in). */
    virtual CostPruneStats pruneStats() const;

    /**
     * Fold everything that determines this model's cost values into a
     * running content hash: the graph plus the accelerator here; a
     * deployment model additionally folds every core's configuration,
     * so cached evaluations of different deployments can never alias.
     * The evaluation cache's salts are built from this.
     */
    virtual uint64_t contextHash(uint64_t h) const;

    /** Per-core / crossbar accounting of @p p under @p buf. */
    virtual DeploymentBreakdown breakdown(const Partition &p,
                                          const BufferConfig &buf);

    /**
     * Per-core busy compute cycles for one execution of a subgraph
     * (equal weight shards; index = core). Single-entry for a
     * single-core platform. Used for the timeline's per-core lanes.
     */
    virtual std::vector<double>
    coreComputeCycles(const std::vector<NodeId> &nodes);

    /** Number of distinct subgraphs profiled so far. */
    size_t cacheSize() const;

  private:
    /** FNV-style hash of an already-sorted node set. */
    struct NodeSetHash
    {
        size_t operator()(const std::vector<NodeId> &nodes) const;
    };

    /** One stripe of the profile memo (full profiles + the cheap
     *  boundary summaries share the stripes). */
    struct CacheShard
    {
        mutable std::mutex mu;
        std::unordered_map<std::vector<NodeId>, SubgraphProfile, NodeSetHash>
            map;
        std::unordered_map<std::vector<NodeId>, BoundProfile, NodeSetHash>
            bounds;
    };

    static constexpr int kCacheShards = 64;

    /** The memoized profile of the ascending node set @p key (hash
     *  @p h), computed from @p nodes on first use. */
    const SubgraphProfile &memoProfile(const std::vector<NodeId> &nodes,
                                       const std::vector<NodeId> &key,
                                       uint64_t h);

    SubgraphCost assemble(const SubgraphProfile &prof,
                          const BufferConfig &buf) const;
    SubgraphProfile computeProfile(const std::vector<NodeId> &nodes) const;

    const Graph &g_;
    AcceleratorConfig accel_;
    CacheShard shards_[kCacheShards];

    /** Node -> its singleton profile in the memo, null until
     *  memoized. */
    std::unique_ptr<std::atomic<const SubgraphProfile *>[]> singles_;

    std::atomic<bool> prune_{false};
    mutable std::atomic<uint64_t> fitsShortCircuits_{0};
    mutable std::atomic<uint64_t> schemesPruned_{0};
};

} // namespace cocco

#endif // COCCO_SIM_COST_MODEL_H
