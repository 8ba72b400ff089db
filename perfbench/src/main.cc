/**
 * @file
 * perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir D
 *
 * Runs one workload and prints, as its last stdout line, every metric
 * it measured with unit and sample count, plus the correctness tally
 * (perfbench/run.py turns that into the benchmark's result line).
 * Exits 1 when a correctness check failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

/** The workloads. SA seeds move a job's wall more than GA seeds do, so
 *  SA runs more of them. An earlier session evaluates 3.2k-3.6k
 *  distinct ResNet50 genomes and 4.2k-4.4k NasNet ones, depending on
 *  its seed; its file keeps a fixed count below that. */
const perfbench::SearchWorkload kGaResnet50 = {
    "ga-resnet50",
    R"({"algo":"ga","model":"ResNet50","samples":60000,"seed":%llu,)"
    R"("threads":2,"ga":{"population":500}})",
    2, 2.8, 3000};
const perfbench::SearchWorkload kSaNasnet = {
    "sa-nasnet",
    R"({"algo":"sa","model":"NasNet","samples":5000,"seed":%llu,)"
    R"("threads":1,"sa":{"neighborBatch":1}})",
    3, 4.5, 4000};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload ga-resnet50|sa-nasnet "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    std::string workload;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = argv[i + 1];
        if (!std::strcmp(flag, "--workload"))
            workload = value;
        else if (!std::strcmp(flag, "--seed"))
            cfg.seed = std::strtoull(value, nullptr, 10);
        else if (!std::strcmp(flag, "--seconds"))
            cfg.seconds = std::atoi(value);
        else if (!std::strcmp(flag, "--trace"))
            cfg.trace = std::atoi(value) != 0;
        else if (!std::strcmp(flag, "--workdir"))
            cfg.workdir = value;
        else
            return usage();
    }
    if (cfg.workdir.empty() || cfg.seconds < 1)
        return usage();
    std::filesystem::create_directories(cfg.workdir);

    perfbench::Report report;
    if (workload == kGaResnet50.name)
        perfbench::runSearchWorkload(cfg, kGaResnet50, &report);
    else if (workload == kSaNasnet.name)
        perfbench::runSearchWorkload(cfg, kSaNasnet, &report);
    else
        return usage();
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
}
