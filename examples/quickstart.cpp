/**
 * @file
 * Quickstart: build ResNet50, run a hardware-mapping co-exploration
 * for a shared buffer from a declarative SearchSpec, and print the
 * recommended memory configuration with the resulting partition and
 * costs. Any registered driver works — pass "sa", "ts-random" or
 * "ts-grid" as the second argument to swap the strategy without
 * touching any other line.
 *
 * Usage: quickstart [sample_budget] [algo]
 */

#include <cstdio>
#include <cstdlib>

#include "core/cocco.h"
#include "sim/platform.h"
#include "util/table.h"

using namespace cocco;

int
main(int argc, char **argv)
{
    int64_t budget = argc > 1 ? std::atoll(argv[1]) : 4000;
    std::string algo = argc > 2 ? argv[2] : "ga";

    Graph g = buildModel("ResNet50");
    std::printf("Model: %s — %d nodes, %d edges, %.2f GMACs, %.1f MB "
                "weights\n",
                g.name().c_str(), g.size(), g.numEdges(),
                g.totalMacs() / 1e9,
                g.totalWeightBytes() / (1024.0 * 1024.0));

    // The paper's Simba-like platform, by preset name — swap for
    // "edge"/"cloud" or a platform JSON file to retarget (one core;
    // examples/multicore_deployment scales out over several).
    AcceleratorConfig accel = platformPreset("simba");
    std::printf("Platform: %.3f TOPS, %.0f GB/s DRAM per core\n\n",
                accel.peakTops(), accel.dramGBpsPerCore);

    CoccoFramework cocco(g, accel);

    // One declarative spec drives any registered strategy.
    SearchSpec spec;
    spec.algo = algo;
    spec.style = BufferStyle::Shared;
    spec.eval.sampleBudget = budget;
    spec.eval.alpha = 0.002;
    spec.eval.metric = Metric::Energy;
    spec.ga.population = 100;

    CoccoResult r = cocco.explore(spec);

    std::printf("Co-exploration (%s) finished after %lld samples.\n",
                algo.c_str(), static_cast<long long>(r.samples));
    std::printf("Recommended shared buffer: %s\n", r.buffer.str().c_str());
    std::printf("Objective (Formula 2, alpha=%.4f): %.3E\n\n",
                spec.eval.alpha, r.objective);

    Table t({"metric", "value"});
    t.addRow({"subgraphs", Table::fmtInt(r.cost.subgraphs)});
    t.addRow({"EMA", Table::fmtMB(static_cast<double>(r.cost.emaBytes))});
    t.addRow({"energy", Table::fmtDouble(r.cost.energyPj / 1e9, 3) + " mJ"});
    t.addRow({"latency", Table::fmtDouble(r.cost.latencyMs(), 3) + " ms"});
    t.addRow({"avg BW", Table::fmtDouble(r.cost.avgBwGBps, 2) + " GB/s"});
    t.print();

    // Show the first few subgraphs of the recommended execution plan.
    std::printf("\nFirst subgraphs of the execution strategy:\n");
    auto blocks = r.partition.blocks();
    for (size_t b = 0; b < blocks.size() && b < 5; ++b) {
        std::printf("  subgraph %zu:", b);
        for (NodeId v : blocks[b])
            std::printf(" %s", g.layer(v).name.c_str());
        std::printf("\n");
    }
    if (blocks.size() > 5)
        std::printf("  ... (%zu total)\n", blocks.size());
    return 0;
}
