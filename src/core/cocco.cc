#include "core/cocco.h"

namespace cocco {

void
fillResultMetrics(const CoccoResult &r, bool paretoMode, RunMetrics *m)
{
    if (!r.racers.empty()) {
        m->hasRace = true;
        for (const RacerStats &rs : r.racers) {
            RunMetrics::RacerMetrics rm;
            rm.algo = rs.algo;
            rm.samples = rs.samples;
            rm.bestCost = rs.bestCost;
            rm.improvements = rs.improvements;
            rm.wallSeconds = rs.wallSeconds;
            rm.threads = rs.threads;
            rm.regrants = rs.regrants;
            rm.culled = rs.culled;
            rm.winner = rs.winner;
            rm.stop = stopReasonName(rs.stop);
            if (rs.winner)
                m->portfolioWinner = rs.algo;
            m->racers.push_back(std::move(rm));
        }
    }
    if (paretoMode) {
        m->hasPareto = true;
        m->hypervolume = r.hypervolume;
        for (const ParetoEntry &e : r.frontier) {
            RunMetrics::FrontierPoint p;
            p.bufferBytes = e.bufferBytes;
            p.energyPj = e.energyPj;
            p.latencyCycles = e.latencyCycles;
            p.metric = e.metric;
            p.sample = e.sample;
            m->frontier.push_back(p);
        }
    }
}

CoccoFramework::CoccoFramework(const Graph &g, const AcceleratorConfig &accel)
    : g_(g), model_(std::make_unique<CostModel>(g, accel))
{
}

CoccoFramework::CoccoFramework(const Graph &g, const DeploymentConfig &dep)
    : g_(g), model_(std::make_unique<DeploymentCostModel>(g, dep))
{
}

CoccoResult
CoccoFramework::package(const SearchResult &r, const DseSpace &space) const
{
    CoccoResult out;
    // bestBuffer, not best.buffer(space): the two-step drivers search
    // capacities outside the genome's hardware genes, so only the
    // recorded buffer is authoritative (identical for GA/SA).
    out.buffer = r.bestBuffer;
    out.partition = r.best.part;
    out.cost = r.bestGraphCost;
    out.objective = r.bestCost;
    out.samples = r.samples;
    out.trace = r.trace;
    out.points = r.points;
    out.stop = r.stop;
    out.cacheStats = r.cacheStats;
    out.deltaStats = r.deltaStats;
    out.racers = r.racers;
    // Per-core / crossbar accounting of the recommendation (pure
    // bookkeeping over the memoized profiles; no search state).
    out.deployment = model_->breakdown(out.partition, out.buffer);
    (void)space;
    return out;
}

namespace {

/** Wrap seed partitions as genomes with mid-grid hardware points. */
std::vector<Genome>
wrapSeeds(const std::vector<Partition> &parts, const DseSpace &space)
{
    std::vector<Genome> seeds;
    for (const Partition &p : parts) {
        Genome g;
        g.part = p;
        g.actIdx = space.actGrid.count / 2;
        g.weightIdx = space.weightGrid.count / 2;
        g.sharedIdx = space.sharedGrid.count / 2;
        seeds.push_back(std::move(g));
    }
    return seeds;
}

} // namespace

CoccoResult
CoccoFramework::explore(const SearchSpec &spec,
                        const std::vector<Partition> &seed_partitions)
{
    DseSpace space = searchSpace(spec);
    if (spec.paretoMode && !spec.eval.pareto) {
        // Frontier mode: materialize the archive here and hand it to
        // the drivers through the eval core (a portfolio fans it out
        // into per-racer archives and merges them back).
        ParetoArchive archive;
        SearchSpec s = spec;
        s.eval.pareto = &archive;
        std::unique_ptr<Searcher> searcher =
            SearcherRegistry::instance().make(s.algo, *model_, space, s);
        CoccoResult out =
            package(searcher->run(wrapSeeds(seed_partitions, space)),
                    space);
        out.frontier = archive.entries();
        out.hypervolume = archive.hypervolume();
        return out;
    }
    std::unique_ptr<Searcher> searcher =
        SearcherRegistry::instance().make(spec.algo, *model_, space, spec);
    return package(searcher->run(wrapSeeds(seed_partitions, space)), space);
}

CoccoResult
CoccoFramework::coExplore(BufferStyle style, const GaOptions &opts,
                          const std::vector<Partition> &seed_partitions)
{
    SearchSpec spec;
    spec.algo = "ga";
    spec.style = style;
    spec.eval = opts; // slice: the shared core
    spec.ga = opts;   // slice: the GA block
    spec.eval.coExplore = true;
    return explore(spec, seed_partitions);
}

CoccoResult
CoccoFramework::partitionOnly(const BufferConfig &buffer,
                              const GaOptions &opts,
                              const std::vector<Partition> &seed_partitions)
{
    SearchSpec spec;
    spec.algo = "ga";
    spec.fixedBuffer = buffer;
    spec.eval = opts;
    spec.ga = opts;
    spec.eval.coExplore = false;
    return explore(spec, seed_partitions);
}

} // namespace cocco
