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
#include "util/json.h"

using namespace cocco;

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
    m.cache.blockEntries = 240;
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

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, &v, &err)) << err;
    return v;
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

/** One object member of a document, by path ("runs[0].cache.hits"). */
struct KeyPath
{
    std::string path, parent;
    JsonValue value;
};

void
collectKeys(const JsonValue &v, const std::string &path,
            std::vector<KeyPath> *out)
{
    if (v.isArray()) {
        for (size_t i = 0; i < v.array().size(); ++i)
            collectKeys(v.array()[i], path + "[" + std::to_string(i) + "]",
                        out);
    } else if (v.isObject()) {
        for (const auto &[k, x] : v.members()) {
            std::string at = path.empty() ? k : path + "." + k;
            out->push_back({at, path, x});
            collectKeys(x, at, out);
        }
    }
}

using Members = std::vector<std::pair<std::string, JsonValue>>;

/** @p v rebuilt with @p edit applied to the members of the object
 *  that holds the key at @p target (and the key's index there). */
JsonValue
edited(const JsonValue &v, const std::string &path,
       const std::string &target,
       const std::function<void(Members &, size_t)> &edit)
{
    if (v.isArray()) {
        std::vector<JsonValue> items;
        for (size_t i = 0; i < v.array().size(); ++i)
            items.push_back(edited(v.array()[i],
                                   path + "[" + std::to_string(i) + "]",
                                   target, edit));
        return JsonValue::makeArray(std::move(items));
    }
    if (!v.isObject())
        return v;
    Members members;
    size_t hit = v.members().size();
    for (const auto &[k, x] : v.members()) {
        std::string at = path.empty() ? k : path + "." + k;
        if (at == target)
            hit = members.size();
        members.emplace_back(k, edited(x, at, target, edit));
    }
    if (hit < members.size())
        edit(members, hit);
    return JsonValue::makeObject(std::move(members));
}

JsonValue
replaced(const JsonValue &doc, const std::string &target, JsonValue with)
{
    return edited(doc, "", target,
                  [&](Members &ms, size_t i) { ms[i].second = with; });
}

JsonValue
deleted(const JsonValue &doc, const std::string &target)
{
    return edited(doc, "", target, [](Members &ms, size_t i) {
        ms.erase(ms.begin() + static_cast<long>(i));
    });
}

JsonValue
number(const std::string &text)
{
    return JsonValue::makeNumber(std::strtod(text.c_str(), nullptr), text);
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

    const std::set<std::string> optional_blocks = {
        "deployment", "job", "tenants", "portfolio", "pareto"};
    const std::set<std::string> unsigned_counters = {
        "seed",        "hits",          "misses",
        "insertions",  "evictions",     "block_hits",
        "block_misses", "entries",      "block_entries",
        "bound_rejections", "bound_skipped_samples"};
    const std::set<std::string> derived = {
        "evals_total", "evals_computed", "evals_cached", "hit_rate",
        "count",       "frontier_size"};

    std::vector<KeyPath> keys;
    collectKeys(doc, "", &keys);
    ASSERT_GT(keys.size(), 100u);
    for (const KeyPath &kp : keys) {
        const std::string key = kp.path.substr(
            kp.parent.empty() ? 0 : kp.parent.size() + 1);
        const bool in_extra = endsWith(kp.parent, ".extra");
        // Optional blocks and "extra" entries may be absent, and
        // "extra" takes any key.
        if (!in_extra && !optional_blocks.count(key))
            expectRejected(deleted(doc, kp.path), "deleting " + kp.path,
                           kp.path);
        if (!in_extra) {
            std::string sibling =
                kp.parent.empty() ? "bogus" : kp.parent + ".bogus";
            expectRejected(edited(doc, "", kp.path,
                                  [](Members &ms, size_t) {
                                      ms.emplace_back(
                                          "bogus",
                                          JsonValue::makeNumber(1.0));
                                  }),
                           "a sibling of " + kp.path, sibling);
        }
        JsonValue wrong = kp.value.isString()
                              ? JsonValue::makeNumber(1.0)
                              : JsonValue::makeString("1");
        expectRejected(replaced(doc, kp.path, wrong),
                       kp.path + " as a " + wrong.typeName(), kp.path);

        if (!kp.value.isNumber())
            continue;
        const std::string &text = kp.value.numberText();
        if (text.find_first_of(".eE") == std::string::npos && !in_extra) {
            for (const char *bad : {"2.5", "1e300"})
                expectRejected(replaced(doc, kp.path, number(bad)),
                               kp.path + " = " + bad, kp.path);
        }
        if (unsigned_counters.count(key))
            expectRejected(replaced(doc, kp.path, number("-1")),
                           kp.path + " = -1", kp.path);
        if (derived.count(key) || key == "cores") {
            double broken = kp.value.number() + 1.0;
            std::string shown = std::to_string(
                static_cast<long long>(broken));
            if (key == "hit_rate")
                shown = "0.5";
            // "cores" breaks the one-utilization-per-core rule, which
            // names its object.
            expectRejected(replaced(doc, kp.path, number(shown)),
                           "broken " + kp.path,
                           key == "cores" ? kp.parent : kp.path);
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
