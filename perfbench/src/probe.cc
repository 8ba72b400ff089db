#include "partition/repair.h"
#include "search/operators.h"
#include "workloads.h"

namespace perfbench {

void
runProbe(const ResolvedSpec &r, uint64_t seed, int calls, Report *out)
{
    using cocco::Genome;
    const cocco::Graph &g = r.graph;
    const cocco::SearchSpec &spec = r.spec;
    cocco::DseSpace space = spec.eval.coExplore
                                ? cocco::DseSpace::paperSpace(spec.style)
                                : cocco::DseSpace::fixedSpace(
                                      spec.fixedBuffer);
    // One model for the whole stream, pruning as the engine sets it: the
    // profile memo warms up across calls as it does inside a search.
    cocco::CostModel model(g, r.accel);
    model.setPruning(spec.eval.pruning);

    cocco::Rng rng(seed);
    std::vector<Genome> pool;
    for (int i = 0; i < 16; ++i)
        pool.push_back(cocco::randomGenome(g, space, rng));

    std::vector<double> cross, mutate, structural, capacity;
    auto timed = [](std::vector<double> *into, auto &&fn) {
        double t0 = nowSeconds();
        fn();
        into->push_back((nowSeconds() - t0) * 1e6);
    };
    for (int i = 0; i < calls; ++i) {
        const Genome &a = pool[rng.index(pool.size())];
        const Genome &b = pool[rng.index(pool.size())];
        Genome child;
        timed(&cross, [&] {
            child = cocco::crossover(g, space, a, b, rng);
        });
        timed(&mutate, [&] {
            switch (i % 3) {
              case 0:
                cocco::mutateModifyNode(g, child, rng);
                break;
              case 1:
                cocco::mutateSplitSubgraph(g, child, rng);
                break;
              default:
                cocco::mutateMergeSubgraph(g, child, rng);
            }
        });

        // Structural repair of what crossover hands it: every node
        // takes its block from one of two parents, so blocks come
        // apart and the quotient may turn cyclic.
        cocco::Partition mixed;
        mixed.block.resize(a.part.block.size());
        for (size_t v = 0; v < mixed.block.size(); ++v)
            mixed.block[v] = rng.bernoulli(0.5)
                                 ? a.part.block[v]
                                 : a.part.numBlocks + b.part.block[v];
        mixed.numBlocks = a.part.numBlocks + b.part.numBlocks;
        timed(&structural, [&] {
            mixed = cocco::repairStructure(g, std::move(mixed));
        });

        // Capacity repair of the child under its own buffer genes.
        cocco::BufferConfig buf = child.buffer(space);
        timed(&capacity, [&] {
            child.part =
                cocco::repairToCapacity(g, std::move(child.part), model, buf);
        });
        pool[rng.index(pool.size())] = std::move(child);
    }
    out->addPercentiles("search.ops.crossover_us", cross, "us");
    out->addPercentiles("search.ops.mutate_us", mutate, "us");
    out->addPercentiles("partition.repair_structure_us", structural, "us");
    out->addPercentiles("partition.repair_capacity_us", capacity, "us");
}

} // namespace perfbench
