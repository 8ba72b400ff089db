/**
 * Every document's one reader under the shared mutation fuzz
 * (doc_fuzz.h): a run spec with every key set, a run spec whose
 * workload is a workload set, a platform, a deployment and a Graph
 * JSON file. Each doctored copy is refused with a reason that names
 * its key path, and a sample of the doctored specs, submitted to the
 * service, answers 4xx and leaves it serving.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "doc_fuzz.h"
#include "graph/graph_json.h"
#include "serve/job_manager.h"
#include "serve/run_spec.h"
#include "serve/service.h"
#include "sim/deployment.h"
#include "sim/platform.h"
#include "util/json.h"

using namespace cocco;
using namespace docfuzz;

namespace {

/** Every run-spec key, each off its default; every floating-point
 *  value non-integral. */
const char *const kFullSpec = R"({
  "workload": {"model": "GoogleNet",
               "params": {"batch": 2, "resolution": 192, "seqLen": 64,
                          "depth": 3, "widthMult": 0.75, "seed": 5}},
  "platform": {"base": "simba", "peRows": 4, "peCols": 8,
               "macsPerPe": 32, "clockGhz": 1.25,
               "dramGBpsPerCore": 12.5, "maxRegions": 48,
               "channelAlign": 4, "doubleBufferWeights": true,
               "cores": 1, "batch": 2, "crossbarBytesPerCycle": 128.5,
               "energy": {"dramPjPerByte": 90.5,
                          "sramBasePjPerByte": 0.25,
                          "sramSlopePjPerByte": 0.0125, "macPj": 0.0625,
                          "crossbarPjPerByte": 3.5,
                          "sramAreaMm2PerMB": 1.25}},
  "deployment": {"base": "dual", "cores": 3,
                 "interconnect": {"bytesPerCycle": 96.5,
                                  "pjPerByteHop": 2.5},
                 "corePlatforms": ["simba",
                                   {"base": "edge", "peRows": 2,
                                    "clockGhz": 0.9},
                                   {"file": "edge.json"}]},
  "algo": "portfolio", "mode": "pareto", "style": "separate",
  "buffer": {"style": "shared", "actBytes": 524288,
             "weightBytes": 655360, "sharedBytes": 2097152},
  "samples": 400, "seed": 7, "alpha": 0.0025, "metric": "ema",
  "threads": 2, "inSituSplit": false, "pruning": false,
  "cacheEnabled": false, "cacheCapacity": 5000,
  "timeLimitSec": 3600.5, "stallLimit": 100000,
  "ga": {"population": 24, "crossoverRate": 0.75,
         "mutPartitionRate": 0.25, "mutDseRate": 0.125,
         "tournament": 3, "elite": 2, "recordPoints": true},
  "sa": {"tempStartFrac": 0.125, "tempEndFrac": 0.0005,
         "dseMutationRate": 0.375, "neighborBatch": 2},
  "twoStep": {"samplesPerCandidate": 200, "population": 12},
  "portfolio": {"racers": ["ga", "sa"], "deterministicRace": true,
                "checkEvals": 500, "warmupEvals": 100}
})";

const char *const kWorkloadSetSpec = R"({
  "workload_set": [
    {"name": "vision", "model": "GoogleNet",
     "params": {"batch": 2, "resolution": 192, "widthMult": 0.75},
     "arrival_rate_hz": 40.5, "sla_latency_ms": 18.5},
    {"name": "mobile", "file": "mobile.json",
     "arrival_rate_hz": 25.5, "sla_latency_ms": 30.5}],
  "deployment": "big-little", "samples": 200
})";

const char *const kPlatform = R"({
  "base": "edge", "peRows": 4, "peCols": 8, "macsPerPe": 32,
  "clockGhz": 1.25, "dramGBpsPerCore": 12.5, "maxRegions": 48,
  "channelAlign": 4, "doubleBufferWeights": true, "cores": 2,
  "batch": 2, "crossbarBytesPerCycle": 128.5,
  "energy": {"dramPjPerByte": 90.5, "sramBasePjPerByte": 0.25,
             "sramSlopePjPerByte": 0.0125, "macPj": 0.0625,
             "crossbarPjPerByte": 3.5, "sramAreaMm2PerMB": 1.25}
})";

const char *const kDeployment = R"({
  "base": "dual", "cores": 3,
  "interconnect": {"bytesPerCycle": 96.5, "pjPerByteHop": 2.5},
  "corePlatforms": ["simba", {"base": "edge", "peRows": 2,
                              "clockGhz": 0.9},
                    {"file": "edge.json"}]
})";

const char *const kGraph = R"({
  "schema_version": 1, "name": "tiny",
  "nodes": [
    {"name": "in", "kind": "input", "outH": 8, "outW": 8, "outC": 3,
     "kernel": 1, "stride": 1, "preds": []},
    {"name": "conv", "kind": "conv", "outH": 8, "outW": 8, "outC": 16,
     "kernel": 3, "stride": 1, "preds": [0]},
    {"name": "pool", "kind": "pool", "outH": 4, "outW": 4, "outC": 16,
     "kernel": 2, "stride": 2, "preds": [1]}]
})";

std::string
specReason(const std::string &text)
{
    SearchSpec spec;
    std::string err;
    return parseRunSpecText(text, &spec, &err) ? "" : err;
}

/** A reader of @p text through the parser, then @p read. */
template <typename T, typename Read>
std::string
reason(const std::string &text, Read read)
{
    JsonValue doc;
    T out;
    std::string err;
    if (parseJson(text, &doc, &err))
        read(doc, &out, &err);
    return err;
}

} // namespace

TEST(Documents, RunSpecRefusesEveryMutation)
{
    const int n = expectEveryMutationRefused(parsed(kFullSpec), Keys(),
                                             specReason);
    EXPECT_GE(n, 300);
}

TEST(Documents, WorkloadSetRefusesEveryMutation)
{
    Keys keys;
    keys.required = [](const KeyPath &kp) {
        return kp.key == "arrival_rate_hz" || kp.key == "sla_latency_ms";
    };
    EXPECT_GT(expectEveryMutationRefused(parsed(kWorkloadSetSpec), keys,
                                         specReason),
              50);
}

TEST(Documents, PlatformRefusesEveryMutation)
{
    EXPECT_GT(expectEveryMutationRefused(
                  parsed(kPlatform), Keys(),
                  [](const std::string &text) {
                      return reason<AcceleratorConfig>(text,
                                                       acceleratorFromJson);
                  }),
              70);
}

TEST(Documents, DeploymentRefusesEveryMutation)
{
    EXPECT_GT(expectEveryMutationRefused(
                  parsed(kDeployment), Keys(),
                  [](const std::string &text) {
                      return reason<DeploymentDesc>(text,
                                                    deploymentFromJson);
                  }),
              30);
}

TEST(Documents, GraphRefusesEveryMutation)
{
    const std::set<std::string> optional = {"kernel", "stride", "preds"};
    Keys keys;
    keys.required = [&](const KeyPath &kp) {
        return !optional.count(kp.key);
    };
    EXPECT_GT(expectEveryMutationRefused(
                  parsed(kGraph), keys,
                  [](const std::string &text) {
                      return reason<Graph>(text, graphFromJson);
                  }),
              130);
}

TEST(Documents, ServiceRefusesMutatedSpecsAndKeepsServing)
{
    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    JobManager manager(opts);
    std::atomic<bool> shutdown{false};
    auto request = [&](const char *method, const char *path,
                       const std::string &body) {
        HttpRequest req;
        req.method = method;
        req.path = path;
        req.body = body;
        return serveHttpRequest(manager, req, &shutdown);
    };
    const std::vector<Mutation> all = mutations(parsed(kFullSpec), Keys());
    int sent = 0;
    for (size_t i = 0; i < all.size(); i += 7, ++sent) {
        HttpResponse r = request("POST", "/jobs", all[i].text);
        EXPECT_GE(r.status, 400) << all[i].what << ": " << r.body;
        EXPECT_LT(r.status, 500) << all[i].what << ": " << r.body;
    }
    EXPECT_GT(sent, 40);
    EXPECT_EQ(request("GET", "/healthz", "").status, 200);
    EXPECT_FALSE(shutdown.load());
}
