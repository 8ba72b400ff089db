#include "sim/cost_model.h"

#include <algorithm>

#include "sim/mapper.h"
#include "sim/multicore.h"
#include "tileflow/footprint.h"
#include "util/epoch_set.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace cocco {

namespace {

/** Hash of an already-sorted node set. */
uint64_t
hashSortedNodeSet(const std::vector<NodeId> &nodes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (NodeId v : nodes) {
        uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        h = (h ^ (x ^ (x >> 31))) * 0x100000001b3ULL;
    }
    return h;
}

/** @p nodes when already ascending, else a sorted copy in @p tmp. */
const std::vector<NodeId> &
sortedNodes(const std::vector<NodeId> &nodes, std::vector<NodeId> &tmp)
{
    if (std::is_sorted(nodes.begin(), nodes.end()))
        return nodes;
    tmp = nodes;
    std::sort(tmp.begin(), tmp.end());
    return tmp;
}

/**
 * The boundary terms of subgraph @p nodes (BoundProfile) in one pass
 * over per-thread epoch stamps, plus, into @p glb_traffic when
 * non-null, its global-buffer traffic: every tensor surfaced in the
 * buffer is written once (from DRAM for boundary inputs, from the PE
 * array for produced tensors) and read once per in-subgraph consumer;
 * escaping tensors are additionally read for write-back.
 */
BoundProfile
boundaryTerms(const Graph &g, const std::vector<NodeId> &nodes,
              int64_t *glb_traffic)
{
    thread_local EpochSet in_set, boundary;
    in_set.clear(g.size());
    boundary.clear(g.size());
    for (NodeId v : nodes)
        in_set.insert(v);
    auto consumers_in = [&](NodeId u) {
        int64_t n = 0;
        for (NodeId w : g.succs(u))
            if (in_set.contains(w))
                ++n;
        return n;
    };

    BoundProfile bp;
    int64_t glb = 0;
    for (NodeId v : nodes) {
        bp.weightBytes += g.weightBytes(v);
        bp.macs += g.macs(v);
        const int64_t consumers = consumers_in(v);
        if (g.isInput(v)) {
            // A model-input node fused into this subgraph still loads
            // its tensor from DRAM (when anything here consumes it).
            // It lives in DRAM already: nothing to write back.
            if (consumers > 0)
                bp.inBytes += g.outBytes(v);
            glb += g.outBytes(v) * (1 + consumers);
        } else {
            // Escaping: consumed outside the subgraph, or a model
            // output.
            const auto &succs = g.succs(v);
            bool escapes = succs.empty() ||
                           consumers < static_cast<int64_t>(succs.size());
            if (escapes)
                bp.outBytes += g.outBytes(v);
            glb += g.outBytes(v) * (1 + consumers + (escapes ? 1 : 0));
        }
        for (NodeId u : g.preds(v))
            if (!in_set.contains(u) && boundary.insert(u)) {
                bp.inBytes += g.outBytes(u);
                glb += g.outBytes(u) * (1 + consumers_in(u));
            }
    }
    if (glb_traffic)
        *glb_traffic = glb;
    return bp;
}

/** Source of CostModel::id(). */
std::atomic<uint64_t> nextModelId{1};

} // namespace

size_t
CostModel::NodeSetHash::operator()(const std::vector<NodeId> &nodes) const
{
    return static_cast<size_t>(hashSortedNodeSet(nodes));
}

double
GraphCost::latencyMs(double clock_ghz) const
{
    return latencyCycles / (clock_ghz * 1e6);
}

double
GraphCost::metricValue(Metric m) const
{
    return m == Metric::EMA ? static_cast<double>(emaBytes) : energyPj;
}

double
objective(const GraphCost &cost, const BufferConfig &buf, double alpha,
          Metric m)
{
    if (!cost.feasible)
        return kInfeasiblePenalty + buf.totalBytes();
    return static_cast<double>(buf.totalBytes()) +
           alpha * cost.metricValue(m);
}

CostModel::CostModel(const Graph &g, const AcceleratorConfig &accel)
    : CostModel(g, accel, 1, resolveInterconnect({}, accel))
{
}

CostModel::CostModel(const Graph &g, const AcceleratorConfig &accel,
                     int cores, const InterconnectConfig &ic)
    : g_(g), accel_(accel), cores_(cores), ic_(ic),
      id_(nextModelId.fetch_add(1)),
      published_(new std::atomic<const MemoEntry *>[2 * g.size()])
{
    for (NodeId i = 0; i < 2 * g.size(); ++i)
        published_[i].store(nullptr, std::memory_order_relaxed);
}

std::atomic<const CostModel::MemoEntry *> *
CostModel::publishSlot(const std::vector<NodeId> &nodes) const
{
    if (nodes.empty() || nodes.front() < 0 || nodes.front() >= g_.size())
        return nullptr;
    return &published_[2 * nodes.front() + (nodes.size() > 1 ? 1 : 0)];
}

const SubgraphProfile *
CostModel::published(const std::vector<NodeId> &nodes) const
{
    const std::atomic<const MemoEntry *> *slot = publishSlot(nodes);
    const MemoEntry *e =
        slot ? slot->load(std::memory_order_acquire) : nullptr;
    return e && e->first == nodes ? &e->second : nullptr;
}

const SubgraphProfile &
CostModel::profile(const std::vector<NodeId> &nodes)
{
    if (const SubgraphProfile *prof = published(nodes))
        return *prof;
    return memoProfile(nodes);
}

const SubgraphProfile &
CostModel::memoProfile(const std::vector<NodeId> &nodes)
{
    // Canonical (sorted) node set: the cache key compares by value on
    // hash hit, so a 64-bit collision cannot alias two subgraphs.
    std::vector<NodeId> tmp;
    const std::vector<NodeId> &key = sortedNodes(nodes, tmp);
    CacheShard &shard = shards_[hashSortedNodeSet(key) % kCacheShards];

    // The shard lock is held across the profile computation: a second
    // thread asking for the same subgraph waits for the memoized
    // result instead of duplicating the tile-flow profiling.
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end())
        it = shard.map.emplace(key, computeProfile(nodes)).first;
    if (std::atomic<const MemoEntry *> *slot = publishSlot(key))
        slot->store(&*it, std::memory_order_release);
    return it->second;
}

const BoundProfile &
CostModel::boundProfile(const std::vector<NodeId> &nodes)
{
    std::vector<NodeId> tmp;
    const std::vector<NodeId> &key = sortedNodes(nodes, tmp);
    uint64_t h = hashSortedNodeSet(key);
    CacheShard &shard = shards_[h % kCacheShards];

    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.bounds.find(key);
    if (it != shard.bounds.end())
        return it->second;
    // A memoized full profile already carries the boundary terms.
    BoundProfile bp;
    auto full = shard.map.find(key);
    if (full != shard.map.end()) {
        bp.inBytes = full->second.inBytes;
        bp.outBytes = full->second.outBytes;
        bp.weightBytes = full->second.weightBytes;
        bp.macs = full->second.macs;
    } else {
        bp = boundaryTerms(g_, nodes, nullptr);
    }
    return shard.bounds.emplace(key, bp).first->second;
}

size_t
CostModel::cacheSize() const
{
    size_t n = 0;
    for (const CacheShard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mu);
        n += shard.map.size();
    }
    return n;
}

CostPruneStats
CostModel::pruneStats() const
{
    CostPruneStats s;
    s.fitsShortCircuits =
        fitsShortCircuits_.load(std::memory_order_relaxed);
    s.schemesPruned = schemesPruned_.load(std::memory_order_relaxed);
    return s;
}

SubgraphProfile
CostModel::computeProfile(const std::vector<NodeId> &nodes) const
{
    SubgraphProfile prof;
    prof.nodeCount = static_cast<int>(nodes.size());

    BoundProfile bp = boundaryTerms(g_, nodes, &prof.glbTraffic);
    prof.inBytes = bp.inBytes;
    prof.outBytes = bp.outBytes;
    prof.weightBytes = bp.weightBytes;
    prof.macs = bp.macs;

    uint64_t pruned = 0;
    FlowFootprint f =
        bestFootprint(g_, nodes, defaultTileCandidates(), pruning(), &pruned);
    if (pruned)
        schemesPruned_.fetch_add(pruned, std::memory_order_relaxed);
    prof.actFootprintBytes = f.actFootprintBytes;
    prof.numRegions = f.numRegions;
    prof.outTile = f.outTile;

    // Weight-buffer traffic: one fill plus one streaming pass into the
    // PE-local scratchpads (weights are pinned across tile iterations).
    prof.wbufTraffic = 2 * prof.weightBytes;

    prof.mappedCycles = mappedCycles(g_, nodes, accel_);

    if (nodes.size() == 1) {
        const Layer &l = g_.layer(nodes.front());
        prof.kernel = l.kernel;
        prof.stride = l.stride;
    }
    return prof;
}

SubgraphCost
CostModel::assemble(const SubgraphProfile &prof, const BufferConfig &buf)
    const
{
    SubgraphCost cost;
    const int cores = cores_;
    const int batch = accel_.batch;

    // Effective capacities seen by one core. Weights are sharded
    // across cores (paper Section 5.4.2); activations are not.
    int64_t act_cap, weight_cap;
    if (buf.style == BufferStyle::Shared) {
        act_cap = buf.sharedBytes;
        weight_cap = std::max<int64_t>(
            0, buf.sharedBytes - prof.actFootprintBytes);
    } else {
        act_cap = buf.actBytes;
        weight_cap = buf.weightBytes;
    }
    int64_t weight_resident = ceilDiv(prof.weightBytes, cores);

    bool act_fits = prof.actFootprintBytes <= act_cap;
    bool weight_fits = weight_resident <= weight_cap;
    bool regions_ok = prof.numRegions <= accel_.maxRegions;

    int64_t in_reload = 1;
    if (prof.nodeCount == 1) {
        // A single layer is always executable by further tiling, at
        // the price of reloading its inputs: once per weight pass
        // when the weights exceed the buffer (output-channel groups),
        // and with halo duplication when even the tile-1 activation
        // working set exceeds the buffer (no inter-row reuse).
        if (!weight_fits && prof.weightBytes > 0) {
            int64_t passes =
                ceilDiv(weight_resident, std::max<int64_t>(weight_cap, 1));
            in_reload *= std::min<int64_t>(passes, 64);
        }
        if (!act_fits) {
            int64_t halo = std::max(1, prof.kernel / prof.stride);
            in_reload *= std::min<int64_t>(halo * halo, 64);
        }
        cost.feasible = true;
    } else {
        cost.feasible = act_fits && weight_fits && regions_ok;
        if (!cost.feasible)
            return cost;
    }

    // --- EMA (per batch of `batch` inferences). ---
    // Weights are fetched once per subgraph for the whole batch
    // (inter-sample reuse); activations move per sample.
    int64_t act_ema = (prof.inBytes * in_reload + prof.outBytes) * batch;
    int64_t weight_ema = prof.weightBytes;
    cost.emaBytes = act_ema + weight_ema;

    // --- Energy. ---
    const EnergyModel &em = accel_.energy;
    double glb_pj = em.sramPjPerByte(act_cap > 0 ? act_cap : 1);
    double wbuf_pj = em.sramPjPerByte(
        buf.style == BufferStyle::Shared ? buf.sharedBytes : buf.weightBytes);
    double energy = em.dramEnergyPj(cost.emaBytes);
    energy += static_cast<double>(prof.glbTraffic) * batch * glb_pj;
    energy += static_cast<double>(prof.wbufTraffic) * wbuf_pj;
    energy += em.macEnergyPj(prof.macs) * batch;
    energy += crossbarEnergyPj(prof, accel_, cores, ic_);
    cost.energyPj = energy;

    // --- Latency. ---
    // Mapped cycles include PE-array under-utilization (channel
    // padding, depth-wise idling); they lower-bound at macs / peak.
    cost.computeCycles = static_cast<double>(prof.mappedCycles) * batch /
                         cores;
    cost.commCycles = static_cast<double>(cost.emaBytes) /
                      (accel_.dramBytesPerCycle() * cores);
    cost.latencyCycles = std::max(cost.computeCycles, cost.commCycles) +
                         crossbarCycles(prof, accel_, cores, ic_);
    return cost;
}

SubgraphCost
CostModel::subgraphCost(const std::vector<NodeId> &nodes,
                        const BufferConfig &buf)
{
    const SubgraphProfile *prof = published(nodes);
    if (nodes.size() > 1 && pruning()) {
        // A multi-node subgraph whose weight shard exceeds even the
        // whole buffer can never fit (assemble's weight capacity is at
        // most the buffer size), so its weights decide it without
        // tile-flow profiling. Exercised heavily by the in-situ
        // capacity repair. Counted whether or not the profile is
        // memoized, so the count does not depend on memo state.
        int64_t weights = 0;
        if (prof) {
            weights = prof->weightBytes;
        } else {
            for (NodeId v : nodes)
                weights += g_.weightBytes(v);
        }
        int64_t wcap = buf.style == BufferStyle::Shared ? buf.sharedBytes
                                                        : buf.weightBytes;
        if (ceilDiv(weights, cores_) > wcap) {
            fitsShortCircuits_.fetch_add(1, std::memory_order_relaxed);
            return SubgraphCost{};
        }
    }
    return assemble(prof ? *prof : memoProfile(nodes), buf);
}

SubgraphCost
CostModel::blockCost(const std::vector<NodeId> &nodes,
                     const BufferConfig &buf, SubgraphCostCache *costs)
{
    SubgraphCost c;
    if (costs && costs->lookupBlock(nodes, buf, &c))
        return c;
    c = subgraphCost(nodes, buf);
    if (costs)
        costs->insertBlock(nodes, buf, c);
    return c;
}

SubgraphBound
CostModel::subgraphBound(const std::vector<NodeId> &nodes,
                         const BufferConfig &buf)
{
    const BoundProfile &bp = boundProfile(nodes);
    const int cores = cores_;
    const int batch = accel_.batch;
    SubgraphBound b;

    // EMA floor: boundary activations move at least once per sample,
    // weights at least once per batch (assemble's reload factor is
    // >= 1 and only ever multiplies the input term).
    b.emaBytes = (bp.inBytes + bp.outBytes) * batch + bp.weightBytes;

    // Energy floor: assemble's exact terms with the traffic floors
    // substituted — glbTraffic >= in + out (every surfaced tensor is
    // written at least once), wbufTraffic == 2 * weights exactly —
    // and the non-negative crossbar term dropped.
    int64_t act_cap =
        buf.style == BufferStyle::Shared ? buf.sharedBytes : buf.actBytes;
    const EnergyModel &em = accel_.energy;
    double glb_pj = em.sramPjPerByte(act_cap > 0 ? act_cap : 1);
    double wbuf_pj = em.sramPjPerByte(
        buf.style == BufferStyle::Shared ? buf.sharedBytes : buf.weightBytes);
    double energy = em.dramEnergyPj(b.emaBytes);
    energy += static_cast<double>(bp.inBytes + bp.outBytes) * batch * glb_pj;
    energy += 2.0 * static_cast<double>(bp.weightBytes) * wbuf_pj;
    energy += em.macEnergyPj(bp.macs) * batch;
    b.energyPj = energy;

    // Latency floor: mapped cycles never beat macs / peak throughput,
    // DRAM cycles scale with the EMA floor, crossbar dropped.
    b.computeCycles = static_cast<double>(bp.macs) * batch /
                      (static_cast<double>(accel_.macsPerCycle()) * cores);
    b.commCycles = static_cast<double>(b.emaBytes) /
                   (accel_.dramBytesPerCycle() * cores);
    b.latencyCycles = std::max(b.computeCycles, b.commCycles);
    return b;
}

SubgraphBound
CostModel::partitionLowerBound(const Partition &p, const BufferConfig &buf)
{
    // As in partitionCost: call-local lists, one node vector.
    BlockLists lists;
    lists.build(p);
    lists.dropEmpty();
    std::vector<NodeId> nodes;
    SubgraphBound total;
    for (int i = 0; i < lists.count(); ++i) {
        nodes.assign(lists.begin(i), lists.end(i));
        SubgraphBound b = subgraphBound(nodes, buf);
        total.emaBytes += b.emaBytes;
        total.energyPj += b.energyPj;
        total.computeCycles += b.computeCycles;
        total.commCycles += b.commCycles;
        total.latencyCycles += b.latencyCycles;
    }
    return total;
}

bool
CostModel::fits(const std::vector<NodeId> &nodes, const BufferConfig &buf)
{
    // A single layer always fits (further tiling at a reload price);
    // with pruning on that is answered without profiling.
    if (nodes.size() == 1) {
        if (pruning())
            fitsShortCircuits_.fetch_add(1, std::memory_order_relaxed);
        else
            profile(nodes);
        return true;
    }
    return subgraphCost(nodes, buf).feasible;
}

GraphCost
CostModel::partitionCost(const Partition &p, const BufferConfig &buf,
                         SubgraphCostCache *block_cache, CostScope scope)
{
    const bool objective_only = scope == CostScope::Objective;
    GraphCost total;
    total.feasible = true;
    // The blocks as ranges of one node array, each copied into `nodes`
    // for the callees. Call-local, not thread_local: the callees are
    // virtual.
    BlockLists lists;
    lists.build(p);
    lists.dropEmpty();
    const int nb = lists.count();
    std::vector<NodeId> nodes;
    auto load = [&](int i) -> const std::vector<NodeId> & {
        nodes.assign(lists.begin(i), lists.end(i));
        return nodes;
    };
    std::vector<SubgraphCost> costs;
    costs.reserve(nb);
    for (int i = 0; i < nb; ++i) {
        const SubgraphCost c = blockCost(load(i), buf, block_cache);
        ++total.subgraphs;
        costs.push_back(c);
        if (!c.feasible) {
            total.feasible = false;
            // The objective of an infeasible partition is the flat
            // penalty: nothing computed past this point can change
            // it, so the remaining blocks are skipped.
            if (objective_only)
                return total;
            continue;
        }
        total.emaBytes += c.emaBytes;
        total.energyPj += c.energyPj;
        total.latencyCycles += c.latencyCycles;
    }
    if (!objective_only && total.latencyCycles > 0) {
        // bytes/cycle at clockGhz GHz -> GB/s.
        total.avgBwGBps = static_cast<double>(total.emaBytes) /
                          total.latencyCycles * accel_.clockGhz;
    }
    // Strict double-buffered prefetch: adjacent subgraphs' weights
    // must co-reside in the weight (or shared) buffer. Weight shards
    // need only the boundary summary, never a full profile.
    if (accel_.doubleBufferWeights) {
        int64_t cap = buf.style == BufferStyle::Shared ? buf.sharedBytes
                                                       : buf.weightBytes;
        int64_t wb = 0; // block i + 1's shard, carried to the next pair
        for (int i = 0; i + 1 < nb; ++i) {
            int64_t wa = i > 0 ? wb
                               : ceilDiv(boundProfile(load(i)).weightBytes,
                                         cores_);
            wb = ceilDiv(boundProfile(load(i + 1)).weightBytes, cores_);
            // Oversized singletons stream their weights in tiles (the
            // reload fallback) and are exempt from co-residency.
            if (wa > cap || wb > cap)
                continue;
            if (wa + wb > cap) {
                total.feasible = false;
                if (objective_only)
                    return total;
            }
        }
    }
    if (objective_only)
        return total;

    // Peak demand: each subgraph's activation traffic plus the next
    // subgraph's weights, prefetched during this window. Memo entries
    // never move, so block i + 1's summary is kept for its own window.
    const BoundProfile *ahead = nullptr;
    for (int i = 0; i < nb; ++i) {
        const BoundProfile *bp = ahead;
        ahead = nullptr;
        if (!costs[i].feasible || costs[i].latencyCycles <= 0)
            continue;
        if (!bp)
            bp = &boundProfile(load(i));
        int64_t act_io = (bp->inBytes + bp->outBytes) * accel_.batch;
        if (i + 1 < nb)
            ahead = &boundProfile(load(i + 1));
        int64_t prefetch = ahead ? ahead->weightBytes : 0;
        double bw = static_cast<double>(act_io + prefetch) /
                    costs[i].latencyCycles * accel_.clockGhz;
        total.peakBwGBps = std::max(total.peakBwGBps, bw);
    }
    return total;
}

uint64_t
CostModel::contextHash(uint64_t h) const
{
    h = hashGraph(h, g_);
    return hashAccelerator(h, accel_, cores_, ic_);
}

DeploymentBreakdown
CostModel::breakdown(const Partition &p, const BufferConfig &buf)
{
    DeploymentBreakdown b;
    b.cores = cores_;
    GraphCost total = partitionCost(p, buf);

    int64_t macs = 0;
    for (const auto &blk : p.blocks()) {
        const SubgraphProfile &prof = profile(blk);
        b.crossbarEnergyPj += crossbarEnergyPj(prof, accel_, cores_, ic_);
        b.crossbarCycles += crossbarCycles(prof, accel_, cores_, ic_);
        macs += prof.macs;
    }
    if (total.energyPj > 0)
        b.crossbarEnergyShare = b.crossbarEnergyPj / total.energyPj;
    if (total.latencyCycles > 0)
        b.crossbarLatencyShare = b.crossbarCycles / total.latencyCycles;

    // Equal weight shards: every core retires macs / cores useful MACs
    // per sample over the partition's execution window.
    double util = 0.0;
    if (total.latencyCycles > 0) {
        double core_macs = static_cast<double>(macs) * accel_.batch /
                           b.cores;
        util = core_macs /
               (static_cast<double>(accel_.macsPerCycle()) *
                total.latencyCycles);
    }
    b.coreUtilization.assign(static_cast<size_t>(b.cores), util);
    return b;
}

std::vector<double>
CostModel::coreComputeCycles(const std::vector<NodeId> &nodes)
{
    double per = static_cast<double>(profile(nodes).mappedCycles) *
                 accel_.batch / cores_;
    return std::vector<double>(static_cast<size_t>(cores_), per);
}

} // namespace cocco
