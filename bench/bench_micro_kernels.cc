/**
 * @file
 * Google-benchmark microbenchmarks of the framework's hot paths: the
 * tile-flow derivation, subgraph profiling (with and without the
 * memoization cache), partition costing (plain and through a warm
 * block-cost row), structural and capacity repair, crossover, the three
 * partition mutations, and one GA generation. These are the kernels that bound how many samples per
 * second the search can evaluate.
 */

#include <benchmark/benchmark.h>

#include <set>
#include <utility>

#include "graph/algorithms.h"
#include "models/models.h"
#include "partition/repair.h"
#include "search/eval_engine.h"
#include "search/ga.h"
#include "search/operators.h"
#include "search/sa.h"
#include "sim/cost_model.h"
#include "tileflow/footprint.h"
#include "util/logging.h"

using namespace cocco;

namespace {

const Graph &
resnet()
{
    static const Graph g = buildResNet50();
    return g;
}

std::vector<NodeId>
windowOf(const Graph &g, int start, int len)
{
    std::vector<NodeId> out;
    for (int i = start; i < start + len && i < g.size(); ++i)
        out.push_back(i);
    return out;
}

} // namespace

static void
BM_TileFlowDerivation(benchmark::State &state)
{
    const Graph &g = resnet();
    std::vector<NodeId> sub = windowOf(g, 3, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        ExecutionScheme s = deriveConsumptionScheme(g, sub, 4);
        benchmark::DoNotOptimize(s.actFootprintBytes);
    }
}
BENCHMARK(BM_TileFlowDerivation)->Arg(1)->Arg(4)->Arg(16)->Arg(32);

static void
BM_BestSchemeMapper(benchmark::State &state)
{
    const Graph &g = resnet();
    std::vector<NodeId> sub = windowOf(g, 3, 8);
    for (auto _ : state) {
        ExecutionScheme s = bestScheme(g, sub);
        benchmark::DoNotOptimize(s.outTile);
    }
}
BENCHMARK(BM_BestSchemeMapper);

static void
BM_SubgraphProfileCold(benchmark::State &state)
{
    // Arg 0: every block of one fixed canonical NasNet partition (a
    // random genome's singletons and fused runs). Arg 1: one 8-layer
    // ResNet50 window. Each iteration profiles them on a fresh model,
    // so every profile misses the memo; the model's construction and
    // destruction are timed too, spread over the blocks. The rate is
    // profiles per second.
    static const Graph nasnet = buildModel("NasNet");
    const Graph &g = state.range(0) == 0 ? nasnet : resnet();
    std::vector<std::vector<NodeId>> blocks;
    if (state.range(0) == 0) {
        DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
        Rng rng(13);
        blocks = randomGenome(g, space, rng).part.blocks();
    } else {
        blocks.push_back(windowOf(g, 3, 8));
    }
    AcceleratorConfig accel;
    for (auto _ : state) {
        CostModel model(g, accel);
        for (const auto &blk : blocks)
            benchmark::DoNotOptimize(model.profile(blk).actFootprintBytes);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(blocks.size()));
    state.SetLabel(strprintf("%zu blocks", blocks.size()));
}
BENCHMARK(BM_SubgraphProfileCold)->Arg(0)->Arg(1);

static void
BM_SubgraphProfileCached(benchmark::State &state)
{
    const Graph &g = resnet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    std::vector<NodeId> sub = windowOf(g, 3, 8);
    model.profile(sub); // warm
    for (auto _ : state)
        benchmark::DoNotOptimize(model.profile(sub).actFootprintBytes);
}
BENCHMARK(BM_SubgraphProfileCached);

static void
BM_PartitionCost(benchmark::State &state)
{
    const Graph &g = resnet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 1024 * 1024;
    Partition p = Partition::fixedRuns(g, 3);
    p = repairToCapacity(g, std::move(p), model, buf);
    for (auto _ : state) {
        GraphCost c = model.partitionCost(p, buf);
        benchmark::DoNotOptimize(c.energyPj);
    }
}
BENCHMARK(BM_PartitionCost);

static void
BM_PartitionCostRow(benchmark::State &state)
{
    // A repaired NasNet partition costed through a warm row at
    // Objective scope, as the evaluation engine costs a cache miss
    // after capacity repair.
    static const Graph g = buildModel("NasNet");
    CostModel model(g, AcceleratorConfig{});
    model.setPruning(true);
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 512 * 1024;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(3);
    BlockCostRow &row = blockCostRow(model, buf);
    Partition p = repairToCapacity(g, randomGenome(g, space, rng).part,
                                   model, buf, &row);
    for (auto _ : state) {
        GraphCost c = model.partitionCost(p, buf, &row,
                                          CostModel::CostScope::Objective);
        benchmark::DoNotOptimize(c.energyPj);
    }
    state.SetLabel(strprintf("%d blocks", p.numBlocks));
}
BENCHMARK(BM_PartitionCostRow);

static void
BM_RepairToCapacity(benchmark::State &state)
{
    // A NasNet crossover child under a tight shared buffer, with the
    // profile memo warm as it is in a running search.
    static const Graph g = buildModel("NasNet");
    CostModel model(g, AcceleratorConfig{});
    model.setPruning(true);
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 128 * 1024;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(9);
    Genome dad = randomGenome(g, space, rng);
    Genome mom = randomGenome(g, space, rng);
    Genome child = crossover(g, space, dad, mom, rng);
    repairToCapacity(g, child.part, model, buf); // warm the memo
    for (auto _ : state) {
        Partition p = repairToCapacity(g, child.part, model, buf);
        benchmark::DoNotOptimize(p.numBlocks);
    }
}
BENCHMARK(BM_RepairToCapacity);

static void
BM_RepairStructure(benchmark::State &state)
{
    // Arg 0: ResNet50 with 12 random ids. Arg 1: each merge of two
    // adjacent blocks of a canonical NasNet partition that closes a
    // quotient cycle, one per iteration in turn: the inputs whose
    // repair splits a block and resumes the drain.
    static const Graph nasnet = buildModel("NasNet");
    const Graph &g = state.range(0) == 0 ? resnet() : nasnet;
    Rng rng(5);
    std::vector<Partition> inputs;
    if (state.range(0) == 0) {
        Partition junk;
        junk.block.resize(g.size());
        for (int &b : junk.block)
            b = static_cast<int>(rng.index(12));
        inputs.push_back(junk);
    } else {
        DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
        const Partition base = randomGenome(g, space, rng).part;
        std::set<std::pair<int, int>> seen;
        for (NodeId v = 0; v < g.size(); ++v)
            for (NodeId u : g.preds(v)) {
                const int a = base.block[u], b = base.block[v];
                if (a == b || !seen.emplace(a, b).second)
                    continue;
                Partition merged = base;
                for (int &id : merged.block)
                    if (id == b)
                        id = a;
                if (!quotientIsAcyclic(g, merged.block))
                    inputs.push_back(std::move(merged));
            }
        if (inputs.empty())
            state.SkipWithError("no merge closes a quotient cycle");
    }
    size_t i = 0;
    for (auto _ : state) {
        Partition p = inputs[i++ % inputs.size()];
        p = repairStructure(g, std::move(p));
        benchmark::DoNotOptimize(p.numBlocks);
    }
    state.counters["inputs"] = static_cast<double>(inputs.size());
}
BENCHMARK(BM_RepairStructure)->Arg(0)->Arg(1);

static void
BM_CrossoverOperator(benchmark::State &state)
{
    // Arg 0: distinct random parents. Arg 1: identical partitions with
    // different hardware genes, the pairing of a converged population.
    const Graph &g = resnet();
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(7);
    Genome dad = randomGenome(g, space, rng);
    Genome mom = randomGenome(g, space, rng);
    if (state.range(0) == 1) {
        mom.part = dad.part;
        mom.sharedIdx = (dad.sharedIdx + 1) % space.sharedGrid.count;
    }
    for (auto _ : state) {
        Genome child = crossover(g, space, dad, mom, rng);
        benchmark::DoNotOptimize(child.part.numBlocks);
    }
}
BENCHMARK(BM_CrossoverOperator)->Arg(0)->Arg(1);

static void
BM_Mutate(benchmark::State &state)
{
    // Arg 0 modify-node, 1 split-subgraph, 2 merge-subgraph, each
    // applied to a copy of the state a short SA run over NasNet ends
    // with: a canonical (flagged) genome, so this is the repair an SA
    // move pays.
    static const Graph g = buildModel("NasNet");
    static const Genome base = [] {
        CostModel model(g, AcceleratorConfig{});
        SaOptions o;
        o.sampleBudget = 300;
        o.seed = 4;
        return simulatedAnnealing(
                   model, DseSpace::paperSpace(BufferStyle::Shared), o)
            .best;
    }();
    if (!base.part.canonical())
        state.SkipWithError("the SA state is not flagged canonical");
    using Op = void (*)(const Graph &, Genome &, Rng &, GeneDelta *);
    const Op ops[] = {mutateModifyNode, mutateSplitSubgraph,
                      mutateMergeSubgraph};
    const Op op = ops[state.range(0)];
    Rng rng(13);
    for (auto _ : state) {
        Genome genome = base;
        op(g, genome, rng, nullptr);
        benchmark::DoNotOptimize(genome.part.numBlocks);
    }
}
BENCHMARK(BM_Mutate)->Arg(0)->Arg(1)->Arg(2);

static void
BM_GaGeneration(benchmark::State &state)
{
    const Graph &g = resnet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    for (auto _ : state) {
        GaOptions o;
        o.population = 20;
        o.sampleBudget = 40; // init + one generation
        o.seed = 11;
        SearchResult r = GeneticSearch(model, space, o).run();
        benchmark::DoNotOptimize(r.bestCost);
    }
}
BENCHMARK(BM_GaGeneration);

BENCHMARK_MAIN();
