/**
 * @file
 * The deployment frontend: first-class multi-accelerator scale-out
 * (paper Section 5.4.2 / Table 3). A deployment describes how one
 * workload is spread over crossbar-connected cores — how many cores,
 * which platform each core runs (heterogeneous mixes allowed), and
 * the interconnect the weight shards rotate over — and is addressable
 * by preset name, by file, or inline, exactly like workloads and
 * platforms.
 *
 * Layers:
 *   DeploymentDesc      the declarative description (core platforms
 *                       are PlatformSpec *addresses*)
 *   DeploymentSpec      an address of a description: preset / file /
 *                       inline (what a run spec or the CLI carries)
 *   DeploymentRegistry  named presets ("single", "dual", "quad",
 *                       "big-little"), the same PresetRegistry as
 *                       PlatformRegistry
 *   DeploymentConfig    the resolved form: one AcceleratorConfig per
 *                       core + the interconnect
 *   DeploymentCostModel the evaluator: composes per-core CostModels
 *                       with the crossbar serialization/energy terms
 *                       behind the plain CostModel interface; the
 *                       only way to a model of more than one core
 *
 * Deployment JSON (strict; "cores" alone is the common case):
 *
 *   {
 *     "base": "quad",                       // optional preset start
 *     "cores": 4,
 *     "interconnect": { "bytesPerCycle": 256.0, "pjPerByteHop": 4.0 },
 *     "corePlatforms": [ "simba", "simba", "edge", "edge" ]
 *   }
 *
 * Omitted "corePlatforms" means every core runs the run's platform;
 * entries are platform addresses (preset string, {"file": PATH}, or
 * inline object). A single-core deployment is exactly zero-cost: the
 * run is bit-identical to the same run with no deployment at all.
 */

#ifndef COCCO_SIM_DEPLOYMENT_H
#define COCCO_SIM_DEPLOYMENT_H

#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/platform.h"

namespace cocco {

class JsonValue;

/** Field-wise equality over everything the cost model reads (used to
 *  dedup per-core models here and in the co-scheduler). */
bool accelEqual(const AcceleratorConfig &a, const AcceleratorConfig &b);

/**
 * A declarative deployment description. Core platforms are addresses
 * (resolved against the registry / files / the run's own platform by
 * resolveDeployment in core/serialize.h); empty corePlatforms means
 * "cores x the run's platform".
 */
struct DeploymentDesc
{
    int cores = 1;
    std::vector<PlatformSpec> corePlatforms; ///< empty, or one per core
    InterconnectConfig interconnect;
};

/**
 * A deployment address as carried by a SearchSpec or assembled from
 * CLI flags: a named preset, a deployment JSON file, or an inline
 * description. `enabled` distinguishes "no deployment section" (plain
 * single-platform run) from an explicit deployment.
 */
struct DeploymentSpec
{
    bool enabled = false;   ///< false: no deployment in play at all
    std::string preset;     ///< preset name ("" = none)
    std::string file;       ///< deployment JSON path ("" = none)
    bool inlineDesc = false; ///< true: use `desc` verbatim
    DeploymentDesc desc;    ///< the inline description
};

/** The string-keyed deployment-preset registry. */
using DeploymentRegistry = PresetRegistry<DeploymentDesc>;
template <>
DeploymentRegistry &DeploymentRegistry::instance();

/** The preset named @p name (fatal with the known list: unknown). */
inline DeploymentDesc
deploymentPreset(const std::string &name)
{
    return DeploymentRegistry::instance().preset(name);
}

/** Serialize a deployment description (cores, interconnect, and the
 *  core platform addresses that are expressible in JSON). */
std::string deploymentToJson(const DeploymentDesc &desc);

/**
 * Populate a DeploymentDesc from a parsed deployment document (the
 * schema above). Strict: unknown keys, type mismatches, non-positive
 * core counts/bandwidth, negative energies and a corePlatforms list
 * that disagrees with "cores" are errors. @return false with *err
 * set on any problem.
 */
bool deploymentFromJson(const JsonValue &doc, DeploymentDesc *out,
                        std::string *err);

template <bool Reading>
class FieldWalk;

/** A deployment address as a run spec gives one, read as a field
 *  (util/field_walk.h): a preset name, a lone {"file": PATH}, or an
 *  inline deployment document. Sets d.enabled. */
void deploymentAddress(FieldWalk<true> &v, DeploymentSpec &d);

/**
 * The resolved form: one AcceleratorConfig per core plus the
 * interconnect. Produced by resolveDeployment (core/serialize.h)
 * or homogeneousDeployment; consumed by DeploymentCostModel and
 * CoccoFramework.
 */
struct DeploymentConfig
{
    std::vector<AcceleratorConfig> coreConfigs; ///< one per core
    InterconnectConfig interconnect;

    int cores() const { return static_cast<int>(coreConfigs.size()); }

    /** True when every core runs the same configuration. */
    bool homogeneous() const;
};

/**
 * The common case without the resolution machinery: @p cores copies
 * of @p core behind the interconnect @p ic (unset knobs inherit
 * @p core's crossbar).
 */
DeploymentConfig homogeneousDeployment(const AcceleratorConfig &core,
                                       int cores,
                                       const InterconnectConfig &ic = {});

/**
 * The scale-out evaluator, and the only builder of a CostModel of
 * more than one core: its base model (and every per-core model) is
 * a core's platform sharded over the deployment's cores behind its
 * resolved interconnect. For a homogeneous deployment the base model
 * *is* the deployment, so a single-core deployment costs exactly
 * what a plain CostModel does. For a heterogeneous deployment it
 * composes per-core models: a subgraph is feasible iff it is
 * feasible on every core, energy averages the per-core aggregates
 * (equal weight shards), compute latency is gated by the slowest
 * core (cycles normalized to core 0's clock), DRAM cycles use the
 * summed per-core bandwidth, and the crossbar serialization/energy
 * terms are counted once.
 *
 * contextHash() additionally folds every core's configuration, so
 * evaluation-cache entries from different deployments can never
 * alias.
 */
class DeploymentCostModel : public CostModel
{
  public:
    /** @p dep must be resolved (at least one core). The graph is kept
     *  by reference and must outlive the model. */
    DeploymentCostModel(const Graph &g, const DeploymentConfig &dep);

    /** The deployment being modelled. */
    const DeploymentConfig &deployment() const { return dep_; }

    SubgraphCost subgraphCost(const std::vector<NodeId> &nodes,
                              const BufferConfig &buf) override;
    /** Roofline lower bound composed exactly like subgraphCost: the
     *  slowest core gates compute, per-core bandwidth aggregates, the
     *  per-core energy floors average (crossbar dropped). */
    SubgraphBound subgraphBound(const std::vector<NodeId> &nodes,
                                const BufferConfig &buf) override;
    /** Forwarded to every per-core model. */
    void setPruning(bool on) override;
    /** Aggregate view's counters plus every per-core model's. */
    CostPruneStats pruneStats() const override;
    uint64_t contextHash(uint64_t h) const override;
    DeploymentBreakdown breakdown(const Partition &p,
                                  const BufferConfig &buf) override;
    std::vector<double>
    coreComputeCycles(const std::vector<NodeId> &nodes) override;

  private:
    DeploymentConfig dep_;
    bool homogeneous_ = true;

    /** Distinct per-core models (heterogeneous only; cores sharing a
     *  configuration share a model and its profile memo). */
    std::vector<std::unique_ptr<CostModel>> ownedModels_;
    std::vector<CostModel *> perCore_; ///< core index -> model
};

} // namespace cocco

#endif // COCCO_SIM_DEPLOYMENT_H
