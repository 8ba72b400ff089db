/**
 * @file
 * Table 3 reproduction: multi-core (1/2/4 cores) and batch (1/2/8)
 * evaluation with the energy-capacity co-optimized shared buffer per
 * configuration. Reports energy (mJ), latency (ms), and the chosen
 * per-core shared buffer size.
 *
 * Scale-out goes through the deployment subsystem (sim/deployment.h):
 * each configuration is a homogeneous deployment of the paper
 * platform behind the default crossbar, on the same API a run spec's
 * "deployment" section uses. With --metrics-out, each cell
 * additionally records per-core utilization and the crossbar's
 * energy/latency share, so the Table 3 trajectory is machine-checkable.
 *
 * Expected shape: energy rises slightly with core count (crossbar
 * weight rotation) while latency drops sub-linearly; batch-8 energy
 * and latency grow sub-linearly in the batch (weights amortize); the
 * per-core buffer shrinks as cores share weights.
 */

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/cocco.h"
#include "util/table.h"

using namespace cocco;
using namespace cocco::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, "Table 3: multi-core and batch");
    banner("Table 3: multi-core / batch co-exploration (shared buffer)",
           args);

    std::vector<RunMetrics> metrics;
    for (const std::string &name : coExploreModels()) {
        Graph g = buildModel(name);
        Table t({"cores", "batch", "energy (mJ)", "latency (ms)",
                 "size (KB)"});
        for (int cores : {1, 2, 4}) {
            for (int batch : {1, 2, 8}) {
                AcceleratorConfig accel = paperAccelerator();
                accel.batch = batch;
                CoccoFramework cocco(g,
                                     homogeneousDeployment(accel, cores));

                GaOptions o;
                o.sampleBudget = args.coExploreBudget() / 4;
                o.population = args.population();
                o.alpha = 0.002;
                o.metric = Metric::Energy;
                o.seed = args.seed;
                auto t0 = std::chrono::steady_clock::now();
                CoccoResult r = cocco.coExplore(BufferStyle::Shared, o);

                t.addRow({Table::fmtInt(cores), Table::fmtInt(batch),
                          Table::fmtDouble(r.cost.energyPj / 1e9, 2),
                          Table::fmtDouble(r.cost.latencyMs(), 2),
                          Table::fmtInt(r.buffer.sharedBytes / 1024)});

                RunMetrics m;
                m.name = name + "-c" + std::to_string(cores) + "-b" +
                         std::to_string(batch);
                m.model = name;
                m.seed = args.seed;
                m.samples = r.samples;
                m.bestCost = r.objective;
                m.wallSeconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                m.cacheEnabled = true;
                m.cache = r.cacheStats;
                m.hasDeployment = true;
                m.deployment = r.deployment;
                m.extra = {{"cores", static_cast<double>(cores)},
                           {"batch", static_cast<double>(batch)},
                           {"energy_mj", r.cost.energyPj / 1e9},
                           {"latency_ms", r.cost.latencyMs()}};
                metrics.push_back(std::move(m));
            }
            t.addRule();
        }
        std::printf("%s:\n", name.c_str());
        t.print();
        std::printf("\n");
    }
    std::printf("Expected shape (paper Table 3): dual-core energy slightly "
                "above single-core;\nlatency scales sub-linearly with cores"
                " and batch; per-core buffer shrinks with cores.\n");
    return writeMetrics(args, "bench_tab3_multicore", metrics) ? 0 : 1;
}
