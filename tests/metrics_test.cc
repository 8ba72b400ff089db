/**
 * The metrics schema's one field list: metricsToJson and the strict
 * metricsFromJson (`cocco validate-metrics`) round-trip every field,
 * and every doctored document is rejected with a reason that names
 * the key's path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "serve/run_spec.h"
#include "doc_fuzz.h"
#include "util/json.h"

using namespace cocco;
using namespace docfuzz;

namespace {

/** A run with every optional block, two entries in each list, strings
 *  that need escaping and the largest seed. Every number field holds
 *  a non-integral value, so a document's integer fields are exactly
 *  its integer literals. */
RunMetrics
fullRun()
{
    RunMetrics m;
    m.name = "quote\" back\\slash\ttab\nline\x01";
    m.model = "GoogleNet";
    m.threads = 3;
    m.seed = std::numeric_limits<uint64_t>::max();
    m.samples = 1200;
    m.bestCost = 12345.625;
    m.wallSeconds = 0.375;
    m.cacheEnabled = true;
    m.cache.hits = 900;
    m.cache.misses = 300;
    m.cache.insertions = 300;
    m.cache.evictions = 7;
    m.cache.blockHits = 5000;
    m.cache.blockMisses = 250;
    m.cache.entries = 293;
    m.cache.boundRejections = 11;
    m.cache.boundSkippedSamples = 13;
    m.hasDeployment = true;
    m.deployment.cores = 2;
    m.deployment.coreUtilization = {0.5, 0.25};
    m.deployment.crossbarEnergyPj = 1500000.5;
    m.deployment.crossbarCycles = 2048.5;
    m.deployment.crossbarEnergyShare = 0.125;
    m.deployment.crossbarLatencyShare = 0.0625;
    m.hasJob = true;
    m.jobId = 42;
    m.tenant = "team \"a\"";
    m.jobState = "done";
    m.queuedSeconds = 0.5;
    m.hasTenants = true;
    m.slaViolations = 1;
    m.meanLatencyMs = 12.5;
    m.tenants = {{"vision", 0, 40.5, 18.5, 20.25, 3500000.5, true},
                 {"mobile", 1, 25.5, 30.5, 10.75, 1.25, false}};
    m.hasPortfolio = true;
    m.portfolioWinner = "ga";
    m.racers = {{"ga", 600, 12345.625, 9, 0.25, 2, 1, false, true, "budget"},
                {"sa", 400, 13000.5, 4, 0.125, 1, 0, true, false, "culled"}};
    m.hasPareto = true;
    m.hypervolume = 0.625;
    m.frontier = {{1048576, 2500000.5, 100000.5, 0.5, 17},
                  {2097152, 2400000.5, 110000.5, 0.75, 33}};
    m.extra = {{"speedup", 2.5},
               {"budget", 0.5},
               {"no_result", std::numeric_limits<double>::infinity()}};
    return m;
}

/** A run with no optional block and the cache off. */
RunMetrics
bareRun()
{
    RunMetrics m;
    m.name = "bare";
    m.model = "SRCNN";
    m.samples = 50;
    m.bestCost = 1.5;
    m.wallSeconds = 0.25;
    return m;
}

/** metricsFromJson's reason, or "" when it accepts @p doc. */
std::string
rejection(const JsonValue &doc)
{
    std::string generator, err;
    std::vector<RunMetrics> runs;
    if (metricsFromJson(doc, &generator, &runs, &err))
        return "";
    EXPECT_FALSE(err.empty());
    return err;
}

/** The reason metricsFromJson (after the parser) refuses @p text. */
std::string
textRejection(const std::string &text)
{
    JsonValue v;
    std::string err;
    return parseJson(text, &v, &err) ? rejection(v) : err;
}

bool
endsWith(const std::string &s, const std::string &tail)
{
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

} // namespace

TEST(Metrics, RoundTripsEveryField)
{
    const std::vector<RunMetrics> runs = {fullRun(), bareRun()};
    const std::string doc = metricsToJson("metrics_test", runs);
    std::string generator, err;
    std::vector<RunMetrics> back;
    ASSERT_TRUE(metricsFromJson(parsed(doc), &generator, &back, &err))
        << err;
    EXPECT_EQ(generator, "metrics_test");
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, runs[0].name);
    EXPECT_EQ(back[0].tenant, runs[0].tenant);
    EXPECT_EQ(back[0].seed, std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(std::isnan(back[0].extra[2].second)); // written as null
    EXPECT_EQ(metricsToJson(generator, back), doc);

    EXPECT_EQ(rejection(parsed(doc)), "");
}

TEST(Metrics, ReaderLeavesOutputsOnFailure)
{
    std::string generator = "before", err;
    std::vector<RunMetrics> runs(3);
    EXPECT_FALSE(metricsFromJson(parsed("[]"), &generator, &runs, &err));
    EXPECT_NE(err.find("must be a JSON object"), std::string::npos) << err;
    // Read in full, then refused by the round trip.
    std::string v2 = metricsToJson("metrics_test", {bareRun()});
    v2.replace(v2.find("\"schema_version\":1"), 18, "\"schema_version\":2");
    EXPECT_FALSE(metricsFromJson(parsed(v2), &generator, &runs, &err));
    EXPECT_NE(err.find("\"schema_version\" is 2"), std::string::npos) << err;
    EXPECT_EQ(generator, "before");
    EXPECT_EQ(runs.size(), 3u);
}

TEST(Metrics, ReaderRejectsEveryMutation)
{
    // Deterministic mutation fuzz over every key path of a document
    // with every block: each doctored copy must fail validation with a
    // reason that names the path.
    const JsonValue doc = parsed(metricsToJson(
        "metrics_test", std::vector<RunMetrics>{fullRun(), bareRun()}));
    ASSERT_EQ(rejection(doc), "");
    int cases = 0;
    auto expectRejected = [&](const JsonValue &doctored,
                              const std::string &what,
                              const std::string &path) {
        ++cases;
        std::string err = rejection(doctored);
        EXPECT_FALSE(err.empty()) << what << " was accepted";
        EXPECT_NE(err.find("\"" + path), std::string::npos)
            << what << ": " << err;
    };

    // Optional blocks and "extra" entries may be absent, and "extra"
    // takes any key.
    const std::set<std::string> optional_blocks = {
        "deployment", "job", "tenants", "portfolio", "pareto"};
    Keys keys;
    keys.freeForm = [](const KeyPath &kp) {
        return endsWith(kp.parent, ".extra");
    };
    keys.required = [&](const KeyPath &kp) {
        return !keys.freeForm(kp) && !optional_blocks.count(kp.key);
    };
    cases += expectEveryMutationRefused(doc, keys, textRejection);

    const std::set<std::string> unsigned_counters = {
        "seed",        "hits",          "misses",
        "insertions",  "evictions",     "block_hits",
        "block_misses", "entries",      "bound_rejections",
        "bound_skipped_samples"};
    const std::set<std::string> derived = {
        "evals_total", "evals_computed", "evals_cached", "hit_rate",
        "count",       "frontier_size"};

    std::vector<KeyPath> paths;
    collectKeys(doc, "", &paths);
    ASSERT_GT(paths.size(), 100u);
    for (const KeyPath &kp : paths) {
        if (unsigned_counters.count(kp.key))
            expectRejected(replaced(doc, kp.path, number("-1")),
                           kp.path + " = -1", kp.path);
        if (derived.count(kp.key) || kp.key == "cores") {
            double broken = kp.value.number() + 1.0;
            std::string shown = std::to_string(
                static_cast<long long>(broken));
            if (kp.key == "hit_rate")
                shown = "0.5";
            // "cores" breaks the one-utilization-per-core rule, which
            // names its object.
            expectRejected(replaced(doc, kp.path, number(shown)),
                           "broken " + kp.path,
                           kp.key == "cores" ? kp.parent : kp.path);
        }
    }
    EXPECT_GT(cases, 400);

    expectRejected(replaced(doc, "runs[0].portfolio.winner",
                            JsonValue::makeString("sa")),
                   "a winner no racer is flagged as", "runs[0].portfolio");
    expectRejected(replaced(doc, "runs[0].portfolio.racers[0].winner",
                            JsonValue::makeBool(false)),
                   "no racer flagged winner", "runs[0].portfolio");
    expectRejected(replaced(doc, "schema_version", number("2")),
                   "schema_version 2", "schema_version");
    expectRejected(replaced(doc, "runs[0].seed",
                            number("18446744073709551616")),
                   "a seed past uint64", "runs[0].seed");
    expectRejected(replaced(doc, "runs[0].threads", number("2147483648")),
                   "threads past int", "runs[0].threads");
    // A repeat the parser never made: the reader refuses it too.
    expectRejected(edited(doc, "", "runs[0].model",
                          [](Members &ms, size_t i) {
                              auto copy = ms[i];
                              ms.push_back(copy);
                          }),
                   "a duplicate key", "runs[0].model");
}

TEST(Metrics, ReaderRejectsDocumentsNoWriterProduces)
{
    // A real run's document, then the doctored copies a structural
    // check would pass (or misread through an unchecked cast).
    SearchSpec spec;
    std::string err;
    ASSERT_TRUE(parseRunSpecText(
        R"({"model": "GoogleNet", "algo": "portfolio", "samples": 200,
            "seed": 3, "deployment": {"cores": 2},
            "portfolio": {"deterministicRace": true}})",
        &spec, &err))
        << err;
    SpecRun run;
    ASSERT_EQ(run.prepare(spec), "");
    run.run();
    RunMetrics m = run.metrics();
    m.cacheEnabled = spec.eval.cacheEnabled;
    ASSERT_TRUE(m.hasDeployment && m.hasPortfolio);
    const JsonValue doc = parsed(metricsToJson("cocco_cli", {m}));
    ASSERT_EQ(rejection(doc), "");

    auto expectRejected = [](const JsonValue &doctored,
                             const std::string &path) {
        std::string err = rejection(doctored);
        EXPECT_NE(err.find("\"" + path), std::string::npos)
            << path << ": " << (err.empty() ? "accepted" : err);
    };
    expectRejected(replaced(doc, "runs[0].cache.hits",
                            JsonValue::makeString("many")),
                   "runs[0].cache.hits");
    expectRejected(edited(doc, "", "runs[0].name",
                          [](Members &ms, size_t) {
                              ms.emplace_back("bogus",
                                              JsonValue::makeNumber(1.0));
                          }),
                   "runs[0].bogus");
    expectRejected(
        replaced(doc, "runs[0].evals_total",
                 JsonValue::makeNumber(
                     doc.find("runs")->array()[0].find("evals_total")
                         ->number() +
                     7)),
        "runs[0].evals_total");
    expectRejected(replaced(doc, "runs[0].cache.hit_rate", number("0.999")),
                   "runs[0].cache.hit_rate");
    expectRejected(
        replaced(doc, "runs[0].deployment.core_utilization",
                 JsonValue::makeArray({JsonValue::makeString("busy"),
                                       JsonValue::makeString("idle")})),
        "runs[0].deployment.core_utilization[0]");
    expectRejected(deleted(doc, "runs[0].deployment.crossbar_cycles"),
                   "runs[0].deployment.crossbar_cycles");
    expectRejected(replaced(doc, "runs[0].portfolio.racers[0].regrants",
                            number("2.5")),
                   "runs[0].portfolio.racers[0].regrants");
    expectRejected(replaced(doc, "runs[0].deployment.cores", number("1e300")),
                   "runs[0].deployment.cores");
}
