#include "sim/deployment.h"

#include <algorithm>

#include "sim/multicore.h"
#include "util/hash.h"
#include "util/field_walk.h"

namespace cocco {

bool
accelEqual(const AcceleratorConfig &a, const AcceleratorConfig &b)
{
    return a.peRows == b.peRows && a.peCols == b.peCols &&
           a.macsPerPe == b.macsPerPe && a.clockGhz == b.clockGhz &&
           a.dramGBpsPerCore == b.dramGBpsPerCore &&
           a.maxRegions == b.maxRegions &&
           a.channelAlign == b.channelAlign &&
           a.doubleBufferWeights == b.doubleBufferWeights &&
           a.batch == b.batch &&
           a.crossbarBytesPerCycle == b.crossbarBytesPerCycle &&
           a.energy.dramPjPerByte == b.energy.dramPjPerByte &&
           a.energy.sramBasePjPerByte == b.energy.sramBasePjPerByte &&
           a.energy.sramSlopePjPerByte == b.energy.sramSlopePjPerByte &&
           a.energy.macPj == b.energy.macPj &&
           a.energy.crossbarPjPerByte == b.energy.crossbarPjPerByte &&
           a.energy.sramAreaMm2PerMB == b.energy.sramAreaMm2PerMB;
}

namespace {

const AcceleratorConfig &
firstCore(const DeploymentConfig &dep)
{
    if (dep.coreConfigs.empty())
        fatal("deployment: a resolved deployment needs at least one core "
              "(resolveDeployment was skipped?)");
    return dep.coreConfigs.front();
}

} // namespace

// --- Registry ----------------------------------------------------------------

template <>
DeploymentRegistry &
DeploymentRegistry::instance()
{
    static DeploymentRegistry registry = [] {
        DeploymentRegistry r("deployment");
        DeploymentDesc single;
        single.cores = 1;
        r.add("single",
              "one core of the run's platform (crossbar terms exactly zero)",
              single);

        DeploymentDesc dual;
        dual.cores = 2;
        r.add("dual", "two crossbar-connected cores of the run's platform",
              dual);

        DeploymentDesc quad;
        quad.cores = 4;
        r.add("quad",
              "four crossbar-connected cores (the Table 3 scale-out shape)",
              quad);

        DeploymentDesc biglittle;
        biglittle.cores = 4;
        PlatformSpec simba, edge;
        simba.preset = "simba";
        edge.preset = "edge";
        biglittle.corePlatforms = {simba, simba, edge, edge};
        r.add("big-little",
              "heterogeneous mix: 2x simba + 2x edge behind one crossbar",
              biglittle);
        return r;
    }();
    return registry;
}

// --- JSON --------------------------------------------------------------------

namespace {

/** "cores" against "corePlatforms": given beside the list, the two
 *  agree; without "cores", the list sets it. */
std::string
settleCores(DeploymentDesc &d, bool coresGiven, const FieldWalk<true> &v)
{
    const int n = static_cast<int>(d.corePlatforms.size());
    if (n > 0 && coresGiven && d.cores != n)
        return strprintf("\"%s\" (%d) disagrees with the \"%s\" list (%d "
                         "entries)",
                         v.pathOf("cores").c_str(), d.cores,
                         v.pathOf("corePlatforms").c_str(), n);
    if (n > 0)
        d.cores = n;
    return "";
}

/** The deployment document, written down once. */
template <typename V, typename D>
void
fields(V &v, D &d)
{
    v.base("base", d, DeploymentRegistry::instance(), "deployment");
    const bool cores = v.field(opt("cores"), d.cores, atLeast(1));
    // Only explicit interconnect knobs are written: an unset knob
    // means "inherit the core platform's crossbar" and must stay
    // unset across a round trip.
    auto &ic = d.interconnect;
    const bool bw = ic.bytesPerCycle > 0.0, pj = ic.pjPerByteHop >= 0.0;
    v.object(opt("interconnect", bw || pj), [&] {
        v.field(opt("bytesPerCycle", bw), ic.bytesPerCycle, above(0));
        v.field(opt("pjPerByteHop", pj), ic.pjPerByteHop, atLeast(0));
    });
    v.list(opt("corePlatforms", !d.corePlatforms.empty()), d.corePlatforms,
           [&](auto &p) { platformAddress(v, p); });
    if constexpr (V::kReading)
        v.rule(settleCores(d, cores, v));
}

} // namespace

std::string
deploymentToJson(const DeploymentDesc &desc)
{
    // A core that names no platform runs the default preset.
    DeploymentDesc named = desc;
    for (PlatformSpec &p : named.corePlatforms)
        if (p.preset.empty())
            p.preset = "simba";
    JsonWriter w;
    FieldWalk<false> v(&w);
    v.members([&] { fields(v, named); });
    return w.str();
}

bool
deploymentFromJson(const JsonValue &doc, DeploymentDesc *out,
                   std::string *err)
{
    DeploymentDesc desc;
    std::string why;
    FieldWalk<true> v("deployment", &why);
    if (!v.read(doc, "", [&] { v.members([&] { fields(v, desc); }); }))
        return jsonFail(err, why);
    *out = desc;
    return true;
}

void
deploymentAddress(FieldWalk<true> &v, DeploymentSpec &d)
{
    d.enabled = true;
    v.address(d.preset, d.file, d.inlineDesc, [&] { fields(v, d.desc); });
}

// --- Resolved configuration --------------------------------------------------

bool
DeploymentConfig::homogeneous() const
{
    for (size_t i = 1; i < coreConfigs.size(); ++i)
        if (!accelEqual(coreConfigs[i], coreConfigs[0]))
            return false;
    return true;
}

DeploymentConfig
homogeneousDeployment(const AcceleratorConfig &core, int cores,
                      const InterconnectConfig &ic)
{
    if (cores < 1)
        fatal("deployment: cores must be >= 1 (got %d)", cores);
    DeploymentConfig dep;
    dep.coreConfigs.assign(static_cast<size_t>(cores), core);
    dep.interconnect = resolveInterconnect(ic, core);
    return dep;
}

// --- DeploymentCostModel -----------------------------------------------------

DeploymentCostModel::DeploymentCostModel(const Graph &g,
                                         const DeploymentConfig &dep)
    : CostModel(g, firstCore(dep), dep.cores(),
                resolveInterconnect(dep.interconnect, firstCore(dep))),
      dep_(dep), homogeneous_(dep.homogeneous())
{
    // Inherited interconnect knobs, materialized against core 0, so
    // every per-core model of a heterogeneous mix sees one
    // interconnect.
    dep_.interconnect = ic_;
    if (homogeneous_)
        return; // the base model IS the deployment
    perCore_.reserve(dep_.coreConfigs.size());
    for (const AcceleratorConfig &core : dep_.coreConfigs) {
        CostModel *m = nullptr;
        for (const auto &owned : ownedModels_)
            if (accelEqual(owned->accel(), core)) {
                m = owned.get();
                break;
            }
        if (!m) {
            ownedModels_.emplace_back(
                new CostModel(graph(), core, cores(), ic_));
            m = ownedModels_.back().get();
        }
        perCore_.push_back(m);
    }
}

SubgraphCost
DeploymentCostModel::subgraphCost(const std::vector<NodeId> &nodes,
                                  const BufferConfig &buf)
{
    if (homogeneous_)
        return CostModel::subgraphCost(nodes, buf);

    // Heterogeneous composition. Every per-core model is its core at
    // n cores behind the shared interconnect, so its values are
    // already "this subgraph, sharded n ways, seen by core i":
    //   - feasibility must hold on every core (equal shards);
    //   - EMA is shard-count dependent but core-independent;
    //   - energy: each core moves 1/n of the traffic with its own
    //     energy model, so the total is the mean of the per-core
    //     aggregates (the crossbar term is identical in each and thus
    //     counted exactly once);
    //   - compute: the slowest core gates the rotation (cycles
    //     normalized to core 0's clock domain);
    //   - DRAM: the per-core channels aggregate, so the real transfer
    //     window uses the summed bandwidth.
    const double clock0 = accel().clockGhz;
    double energy_sum = 0.0, compute_max = 0.0, dram_gbps = 0.0;
    int64_t ema = 0;
    bool have_ema = false;
    for (CostModel *m : perCore_) {
        SubgraphCost c = m->subgraphCost(nodes, buf);
        if (!c.feasible)
            return SubgraphCost{};
        energy_sum += c.energyPj;
        compute_max = std::max(compute_max,
                               c.computeCycles *
                                   (clock0 / m->accel().clockGhz));
        dram_gbps += m->accel().dramGBpsPerCore;
        if (!have_ema) {
            ema = c.emaBytes;
            have_ema = true;
        }
    }

    SubgraphCost out;
    out.feasible = true;
    out.emaBytes = ema;
    out.energyPj = energy_sum / static_cast<double>(perCore_.size());
    out.computeCycles = compute_max;
    out.commCycles = static_cast<double>(ema) * clock0 / dram_gbps;
    out.latencyCycles =
        std::max(out.computeCycles, out.commCycles) +
        crossbarCycles(profile(nodes), accel(), cores(), ic_);
    return out;
}

SubgraphBound
DeploymentCostModel::subgraphBound(const std::vector<NodeId> &nodes,
                                   const BufferConfig &buf)
{
    if (homogeneous_)
        return CostModel::subgraphBound(nodes, buf);

    // Mirror of the heterogeneous subgraphCost composition with each
    // per-core exact value replaced by its per-core floor; since the
    // composition is monotone in every term (max for compute, mean
    // for energy, first core's EMA, summed bandwidth) and the
    // non-negative crossbar serialization is dropped, the result
    // lower-bounds every feasible evaluation.
    const double clock0 = accel().clockGhz;
    double energy_sum = 0.0, compute_max = 0.0, dram_gbps = 0.0;
    int64_t ema = 0;
    bool have_ema = false;
    for (CostModel *m : perCore_) {
        SubgraphBound b = m->subgraphBound(nodes, buf);
        energy_sum += b.energyPj;
        compute_max = std::max(compute_max,
                               b.computeCycles *
                                   (clock0 / m->accel().clockGhz));
        dram_gbps += m->accel().dramGBpsPerCore;
        if (!have_ema) {
            ema = b.emaBytes;
            have_ema = true;
        }
    }
    SubgraphBound out;
    out.emaBytes = ema;
    out.energyPj = energy_sum / static_cast<double>(perCore_.size());
    out.computeCycles = compute_max;
    out.commCycles = static_cast<double>(ema) * clock0 / dram_gbps;
    out.latencyCycles = std::max(out.computeCycles, out.commCycles);
    return out;
}

void
DeploymentCostModel::setPruning(bool on)
{
    CostModel::setPruning(on);
    for (auto &m : ownedModels_)
        m->setPruning(on);
}

CostPruneStats
DeploymentCostModel::pruneStats() const
{
    CostPruneStats s = CostModel::pruneStats();
    for (const auto &m : ownedModels_)
        s += m->pruneStats();
    return s;
}

uint64_t
DeploymentCostModel::contextHash(uint64_t h) const
{
    // The base model's hash (graph + core 0's configuration at n
    // cores behind the interconnect) fully describes a homogeneous
    // deployment; a heterogeneous one also folds every core's
    // configuration, in core order, so two deployments that differ
    // anywhere hash apart.
    h = CostModel::contextHash(h);
    if (homogeneous_)
        return h;
    for (const CostModel *m : perCore_)
        h = hashAccelerator(h, m->accel(), cores(), ic_);
    return h;
}

DeploymentBreakdown
DeploymentCostModel::breakdown(const Partition &p, const BufferConfig &buf)
{
    if (homogeneous_)
        return CostModel::breakdown(p, buf);

    DeploymentBreakdown b;
    b.cores = dep_.cores();
    GraphCost total = partitionCost(p, buf);

    int64_t macs = 0;
    for (const auto &blk : p.blocks()) {
        const SubgraphProfile &prof = profile(blk);
        b.crossbarEnergyPj += crossbarEnergyPj(prof, accel(), cores(), ic_);
        b.crossbarCycles += crossbarCycles(prof, accel(), cores(), ic_);
        macs += prof.macs;
    }
    if (total.energyPj > 0)
        b.crossbarEnergyShare = b.crossbarEnergyPj / total.energyPj;
    if (total.latencyCycles > 0)
        b.crossbarLatencyShare = b.crossbarCycles / total.latencyCycles;

    b.coreUtilization.assign(perCore_.size(), 0.0);
    if (total.latencyCycles > 0) {
        const double clock0 = accel().clockGhz;
        double core_macs = static_cast<double>(macs) * accel().batch /
                           b.cores;
        for (size_t i = 0; i < perCore_.size(); ++i) {
            const AcceleratorConfig &a = perCore_[i]->accel();
            // The shared window in core i's own clock domain.
            double cycles_i = total.latencyCycles * a.clockGhz / clock0;
            b.coreUtilization[i] =
                core_macs /
                (static_cast<double>(a.macsPerCycle()) * cycles_i);
        }
    }
    return b;
}

std::vector<double>
DeploymentCostModel::coreComputeCycles(const std::vector<NodeId> &nodes)
{
    if (homogeneous_)
        return CostModel::coreComputeCycles(nodes);
    const double clock0 = accel().clockGhz;
    const int n = dep_.cores();
    std::vector<double> out;
    out.reserve(perCore_.size());
    for (CostModel *m : perCore_) {
        double cyc = static_cast<double>(m->profile(nodes).mappedCycles) *
                     m->accel().batch / n;
        out.push_back(cyc * clock0 / m->accel().clockGhz);
    }
    return out;
}

} // namespace cocco
