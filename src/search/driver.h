/**
 * @file
 * The polymorphic search-driver layer: one composable entry point
 * over every search strategy (paper Figure 10's one-stop framework).
 *
 * - Searcher: the abstract interface every strategy implements —
 *   run(seeds), name(), describe().
 * - SearcherRegistry: string-keyed factories ("ga", "sa",
 *   "ts-random", "ts-grid"), mirroring the model registry, so
 *   frontends dispatch by name and new algorithms plug in without
 *   touching any caller.
 * - SearchSpec: a declarative run description — algorithm key, mode
 *   (co-explore vs partition-only), the shared EvalOptions core and
 *   the per-algorithm parameter blocks — resolvable from C++ or from
 *   a JSON document (searchSpecFromJson).
 *
 * CoccoFramework::explore(SearchSpec) drives any registered strategy
 * through this layer; the legacy entry points (GeneticSearch,
 * simulatedAnnealing, twoStepRandom/Grid, coExplore/partitionOnly)
 * remain and are bit-identical to the registry path at a fixed seed
 * and thread count.
 */

#ifndef COCCO_SEARCH_DRIVER_H
#define COCCO_SEARCH_DRIVER_H

#include <memory>
#include <string>
#include <vector>

#include "models/models.h"
#include "schedule/workload_set.h"
#include "search/ga.h"
#include "search/portfolio.h"
#include "search/sa.h"
#include "search/two_step.h"
#include "sim/deployment.h"
#include "sim/platform.h"

namespace cocco {

class JsonValue;

/**
 * A declarative description of one search run. The evaluation core
 * (budget, seed, objective, threads, cache, observer/early-stop) is
 * shared; each strategy reads its own parameter block and ignores
 * the others, so one spec can be re-dispatched across algorithms by
 * only changing `algo`.
 *
 * Mode: eval.coExplore == true (default) searches the paper's
 * capacity grid for `style` (Formula 2); false freezes `fixedBuffer`
 * and optimizes the partition alone (Formula 1).
 *
 * Workload & platform: `workload` addresses what to run (a registry
 * model with parameters, or a Graph JSON file) and `platform` where
 * to run it (a named preset, a platform JSON file, or an inline
 * configuration), so one JSON document fully describes a run. Both
 * are addresses, not resolved objects — the frontend resolves them
 * via resolveWorkload()/resolvePlatform() (core/serialize.h) before
 * constructing the evaluation environment; an explicit workload
 * batch (>= 1, including 1) overrides the platform's at that point.
 *
 * Deployment: `deployment` optionally scales the run out over
 * crossbar-connected cores (a preset, a file, or an inline
 * description; see sim/deployment.h). It too is an address —
 * resolveDeployment() turns it into per-core configurations against
 * the resolved platform, and CoccoFramework's deployment constructor
 * evaluates under the composed DeploymentCostModel.
 */
struct SearchSpec
{
    std::string algo = "ga";     ///< SearcherRegistry key

    WorkloadSpec workload;       ///< what to run (model/file + params)

    /** Multi-tenant alternative to `workload`: N named workloads with
     *  arrival rates and latency SLAs, co-scheduled over the
     *  deployment (schedule/co_scheduler.h). Mutually exclusive with
     *  `workload`/`model` in a spec document; a one-tenant set is
     *  normalized into `workload` at parse time, so it is
     *  bit-identical to the plain spelling on every frontend. */
    WorkloadSet workloadSet;

    PlatformSpec platform;       ///< where to run it (default "simba")
    DeploymentSpec deployment;   ///< how many cores / which mix (off by
                                 ///< default; "cores": 1 is exactly the
                                 ///< plain single-platform run)

    BufferStyle style = BufferStyle::Shared; ///< co-explore grid
    BufferConfig fixedBuffer;    ///< partition-only target buffer

    EvalOptions eval;            ///< the shared evaluation core
    GaParams ga;                 ///< read by "ga" (and two-step inners)
    SaParams sa;                 ///< read by "sa"
    TwoStepParams twoStep;       ///< read by "ts-random" / "ts-grid"
    PortfolioParams portfolio;   ///< read by "portfolio"

    /** `"mode": "pareto"`: co-explore while maintaining a
     *  non-dominated {buffer, energy, latency} archive in the eval
     *  loop; the frontier lands in CoccoResult::frontier. Implies
     *  eval.coExplore (a frontier over one frozen capacity is a
     *  line). Works under any algo, including "portfolio". */
    bool paretoMode = false;
};

/** Assemble full per-algorithm options from a spec (core + block). */
GaOptions gaOptions(const SearchSpec &spec);
SaOptions saOptions(const SearchSpec &spec);
TwoStepOptions twoStepOptions(const SearchSpec &spec);

/** The design space a spec's run searches: the paper's grid of its
 *  style when co-exploring, else its fixed buffer. */
DseSpace searchSpace(const SearchSpec &spec);

/** One search strategy bound to an evaluation environment. */
class Searcher
{
  public:
    virtual ~Searcher() = default;

    /** The registry key ("ga", "sa", ...). */
    virtual std::string name() const = 0;

    /** One-line human description of the strategy. */
    virtual std::string describe() const = 0;

    /**
     * Run to the spec's budget (or an early stop). @p seeds join the
     * initial population where the strategy supports warm starts
     * (the GA's flexible initialization); strategies without that
     * notion ignore them.
     */
    virtual SearchResult run(const std::vector<Genome> &seeds = {}) = 0;
};

/** Factory: bind a strategy to (model, space, spec). */
using SearcherFactory = std::unique_ptr<Searcher> (*)(
    CostModel &model, const DseSpace &space, const SearchSpec &spec);

/** A strategy's spec rule: "" when it can run @p spec, else the
 *  reason (it reads only the strategy's own parameter block). */
using SearcherRule = std::string (*)(const SearchSpec &spec);

/**
 * The string-keyed driver registry. The four built-in strategies
 * ("ga", "sa", "ts-random", "ts-grid") are registered on first use;
 * additional strategies can be added at startup via add().
 */
class SearcherRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered). */
    static SearcherRegistry &instance();

    /** Register a strategy with its spec rule (null: the strategy
     *  has no parameters to check). Fatal on a duplicate key. */
    void add(const std::string &key, const std::string &summary,
             SearcherFactory factory, SearcherRule rule = nullptr);

    /** @return true when @p key names a registered strategy. */
    bool contains(const std::string &key) const;

    /** @p key's registered rule applied to @p spec ("" when the key
     *  registered none or is unknown). */
    std::string ruleError(const std::string &key,
                          const SearchSpec &spec) const;

    /** Instantiate @p key for an environment (fatal: unknown key). */
    std::unique_ptr<Searcher> make(const std::string &key,
                                   CostModel &model, const DseSpace &space,
                                   const SearchSpec &spec) const;

    /** Registered keys, in registration order. */
    std::vector<std::string> keys() const;

    /** The one-line summary registered for @p key (fatal: unknown). */
    const std::string &summary(const std::string &key) const;

  private:
    SearcherRegistry();

    struct Entry
    {
        std::string key;
        std::string summary;
        SearcherFactory factory;
        SearcherRule rule;
    };
    const Entry *find(const std::string &key) const;

    std::vector<Entry> entries_;
};

/**
 * Populate a SearchSpec from a parsed JSON run spec (the CLI's
 * --spec document; schema in the README). Unknown keys and type
 * mismatches are reported as errors so typos cannot silently fall
 * back to defaults. The workload is addressed by either a top-level
 * "model" string (shorthand) or a "workload" section (model/file +
 * params); the platform by a "platform" preset string, {"file": ...}
 * object, or inline configuration object (optionally based on a
 * preset via "base"). Resolution to Graph/AcceleratorConfig is the
 * caller's job (resolveWorkload/resolvePlatform in core/serialize.h).
 * @return false with *err set on any problem.
 */
bool searchSpecFromJson(const JsonValue &doc, SearchSpec *spec,
                        std::string *err);

/**
 * The one admission rule every frontend applies to a run spec: ""
 * when it can run, else the reason. `algo` is registered, `samples`
 * >= 1, a workload address (or a valid workload_set) is given, and
 * the algorithm's registered rule passes. Addresses are resolved
 * later, each failing with its own reason.
 */
std::string runSpecError(const SearchSpec &spec);

} // namespace cocco

#endif // COCCO_SEARCH_DRIVER_H
