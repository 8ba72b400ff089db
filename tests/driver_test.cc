/**
 * @file
 * Tests for the unified explorer API: the SearcherRegistry, the
 * declarative SearchSpec / CoccoFramework::explore path (bit-identical
 * parity with every legacy entry point at a fixed seed and thread
 * count, in both co-explore and partition-only modes), the
 * SearchObserver callback surface, cooperative cancellation, the
 * time/stall early-stop limits, and the JSON run-spec parser.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "core/cocco.h"
#include "core/serialize.h"
#include "graph/graph_json.h"
#include "serve/run_spec.h"
#include "util/json.h"

using namespace cocco;

namespace {

/** Small but non-trivial multi-branch workload. */
Graph
testGraph()
{
    return buildGoogleNet();
}

/** The standard fixed buffer of the partition studies. */
BufferConfig
fixedBuffer()
{
    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 1024 * 1024;
    buf.weightBytes = 1152 * 1024;
    return buf;
}

/** A CI-sized spec for @p algo. */
SearchSpec
fastSpec(const std::string &algo, int64_t budget = 600)
{
    SearchSpec spec;
    spec.algo = algo;
    spec.eval.sampleBudget = budget;
    spec.eval.seed = 7;
    spec.ga.population = 30;
    spec.twoStep.population = 20;
    spec.twoStep.samplesPerCandidate = 150;
    spec.style = BufferStyle::Shared;
    return spec;
}

/** Strict result equality: the parity contract is bit-identical. */
void
expectIdentical(const SearchResult &a, const CoccoResult &b)
{
    EXPECT_EQ(a.bestCost, b.objective);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.bestBuffer.totalBytes(), b.buffer.totalBytes());
    EXPECT_EQ(a.best.part.block, b.partition.block);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].sample, b.trace[i].sample);
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost);
    }
}

/** Counts callbacks and optionally cancels after N trace points. */
class CountingObserver : public SearchObserver
{
  public:
    void
    onTrace(const TracePoint &tp) override
    {
        ++traces;
        lastSample = tp.sample;
        if (cancelAfter > 0 && traces >= cancelAfter)
            cancel.store(true);
    }

    void
    onImprove(const TracePoint &tp) override
    {
        ++improves;
        EXPECT_LE(tp.bestCost, lastBest);
        lastBest = tp.bestCost;
    }

    void
    onBatchDone(int64_t samples, double bestCost) override
    {
        ++batches;
        EXPECT_EQ(samples, lastSample);
        (void)bestCost;
    }

    bool cancelled() override { return cancel.load(); }

    int64_t traces = 0;
    int64_t improves = 0;
    int64_t batches = 0;
    int64_t lastSample = 0;
    double lastBest = kInfeasiblePenalty;
    int64_t cancelAfter = 0;
    std::atomic<bool> cancel{false};
};

} // namespace

// --- Registry ---------------------------------------------------------------

TEST(Registry, BuiltinsRegistered)
{
    const SearcherRegistry &reg = SearcherRegistry::instance();
    std::vector<std::string> keys = reg.keys();
    ASSERT_EQ(keys.size(), 6u);
    EXPECT_EQ(keys[0], "ga");
    EXPECT_EQ(keys[1], "sa");
    EXPECT_EQ(keys[2], "ts-random");
    EXPECT_EQ(keys[3], "ts-grid");
    EXPECT_EQ(keys[4], "greedy-place");
    EXPECT_EQ(keys[5], "portfolio");
    for (const std::string &k : keys) {
        EXPECT_TRUE(reg.contains(k));
        EXPECT_FALSE(reg.summary(k).empty());
    }
    EXPECT_FALSE(reg.contains("annealing"));
}

TEST(Registry, SearcherSelfDescribes)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    for (const std::string &k : SearcherRegistry::instance().keys()) {
        auto s = SearcherRegistry::instance().make(k, model, space,
                                                   fastSpec(k));
        EXPECT_EQ(s->name(), k);
        EXPECT_FALSE(s->describe().empty());
    }
}

TEST(RegistryDeath, UnknownKeyIsFatal)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    EXPECT_EXIT(SearcherRegistry::instance().make("nope", model, space,
                                                  fastSpec("nope")),
                ::testing::ExitedWithCode(1), "unknown search algorithm");
}

TEST(RegistryDeath, ExploreRejectsUnknownAlgo)
{
    Graph g = testGraph();
    CoccoFramework cocco(g, AcceleratorConfig{});
    SearchSpec spec = fastSpec("gradient-descent");
    EXPECT_EXIT(cocco.explore(spec), ::testing::ExitedWithCode(1),
                "unknown search algorithm");
}

// --- explore() parity with the legacy entry points --------------------------

TEST(ExploreParity, GaCoExplore)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("ga");

    CostModel legacy_model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchResult legacy =
        GeneticSearch(legacy_model, space, gaOptions(spec)).run();

    CoccoFramework cocco(g, accel);
    expectIdentical(legacy, cocco.explore(spec));
}

TEST(ExploreParity, GaPartitionOnly)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("ga");
    spec.eval.coExplore = false;
    spec.fixedBuffer = fixedBuffer();

    CostModel legacy_model(g, accel);
    DseSpace space = DseSpace::fixedSpace(spec.fixedBuffer);
    SearchResult legacy =
        GeneticSearch(legacy_model, space, gaOptions(spec)).run();

    CoccoFramework cocco(g, accel);
    expectIdentical(legacy, cocco.explore(spec));
}

TEST(ExploreParity, GaSeedPartitionsMatchLegacyWrapper)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("ga");
    spec.eval.coExplore = false;
    spec.fixedBuffer = fixedBuffer();

    CoccoFramework a(g, accel);
    CoccoFramework b(g, accel);
    Partition runs = Partition::fixedRuns(g, 4);
    runs.canonicalize(g);

    CoccoResult via_spec = a.explore(spec, {runs});
    CoccoResult via_wrapper =
        b.partitionOnly(spec.fixedBuffer, gaOptions(spec), {runs});
    EXPECT_EQ(via_spec.objective, via_wrapper.objective);
    EXPECT_EQ(via_spec.samples, via_wrapper.samples);
    EXPECT_EQ(via_spec.partition.block, via_wrapper.partition.block);
}

TEST(ExploreParity, SaCoExplore)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("sa");
    spec.sa.neighborBatch = 4;

    CostModel legacy_model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchResult legacy =
        simulatedAnnealing(legacy_model, space, saOptions(spec));

    CoccoFramework cocco(g, accel);
    expectIdentical(legacy, cocco.explore(spec));
}

TEST(ExploreParity, SaPartitionOnly)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("sa");
    spec.eval.coExplore = false;
    spec.fixedBuffer = fixedBuffer();

    CostModel legacy_model(g, accel);
    DseSpace space = DseSpace::fixedSpace(spec.fixedBuffer);
    SearchResult legacy =
        simulatedAnnealing(legacy_model, space, saOptions(spec));

    CoccoFramework cocco(g, accel);
    expectIdentical(legacy, cocco.explore(spec));
}

TEST(ExploreParity, TwoStepRandomCoExplore)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("ts-random");

    CostModel legacy_model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchResult legacy =
        twoStepRandom(legacy_model, space, twoStepOptions(spec));

    CoccoFramework cocco(g, accel);
    expectIdentical(legacy, cocco.explore(spec));
}

TEST(ExploreParity, TwoStepGridCoExplore)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec spec = fastSpec("ts-grid");

    CostModel legacy_model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchResult legacy =
        twoStepGrid(legacy_model, space, twoStepOptions(spec));

    CoccoFramework cocco(g, accel);
    expectIdentical(legacy, cocco.explore(spec));
}

TEST(ExploreParity, TwoStepPartitionOnlyCollapsesToFixedBuffer)
{
    // Partition-only two-step: the capacity sweep degenerates to the
    // frozen buffer with the full budget, scored by the raw metric.
    Graph g = testGraph();
    CoccoFramework cocco(g, AcceleratorConfig{});
    for (const char *algo : {"ts-random", "ts-grid"}) {
        SearchSpec spec = fastSpec(algo);
        spec.eval.coExplore = false;
        spec.fixedBuffer = fixedBuffer();
        CoccoResult r = cocco.explore(spec);
        EXPECT_GT(r.samples, 0);
        EXPECT_EQ(r.buffer.totalBytes(), spec.fixedBuffer.totalBytes());
        EXPECT_LT(r.objective, kInfeasiblePenalty);
        // Formula 1: the objective is the raw metric, not offset by
        // the buffer capacity.
        EXPECT_EQ(r.objective, r.cost.metricValue(spec.eval.metric));
    }
}

TEST(ExploreParity, ThreadCountInvariant)
{
    Graph g = testGraph();
    AcceleratorConfig accel;
    SearchSpec serial = fastSpec("ga", 300);
    SearchSpec parallel = serial;
    parallel.eval.threads = 4;

    CoccoFramework a(g, accel);
    CoccoFramework b(g, accel);
    CoccoResult r1 = a.explore(serial);
    CoccoResult r4 = b.explore(parallel);
    EXPECT_EQ(r1.objective, r4.objective);
    EXPECT_EQ(r1.partition.block, r4.partition.block);
}

// --- Observer callbacks ------------------------------------------------------

TEST(Observer, CallbacksMirrorTheTrace)
{
    Graph g = testGraph();
    CoccoFramework cocco(g, AcceleratorConfig{});
    CountingObserver obs;
    SearchSpec spec = fastSpec("ga", 300);
    spec.eval.observer = &obs;

    CoccoResult r = cocco.explore(spec);
    EXPECT_EQ(obs.traces, r.samples);
    EXPECT_EQ(obs.traces, static_cast<int64_t>(r.trace.size()));
    EXPECT_GE(obs.improves, 1);      // the first sample always improves
    EXPECT_LE(obs.improves, obs.traces);
    EXPECT_GE(obs.batches, 2);       // init + at least one generation
    EXPECT_EQ(obs.lastBest, r.objective);
    EXPECT_EQ(r.stop, StopReason::BudgetExhausted);
}

TEST(Observer, SameResultWithAndWithoutObserver)
{
    Graph g = testGraph();
    CoccoFramework a(g, AcceleratorConfig{});
    CoccoFramework b(g, AcceleratorConfig{});
    SearchSpec plain = fastSpec("sa", 300);
    CountingObserver obs;
    SearchSpec observed = plain;
    observed.eval.observer = &obs;

    CoccoResult r1 = a.explore(plain);
    CoccoResult r2 = b.explore(observed);
    EXPECT_EQ(r1.objective, r2.objective);
    EXPECT_EQ(r1.samples, r2.samples);
    EXPECT_EQ(obs.traces, r2.samples);
}

TEST(Observer, TwoStepReportsGlobalSamples)
{
    Graph g = testGraph();
    CoccoFramework cocco(g, AcceleratorConfig{});
    CountingObserver obs;
    SearchSpec spec = fastSpec("ts-grid");
    spec.eval.observer = &obs;

    CoccoResult r = cocco.explore(spec);
    EXPECT_EQ(obs.traces, r.samples);
    EXPECT_EQ(obs.lastSample, r.samples);
    EXPECT_GE(obs.batches, 1); // one per candidate capacity
}

// --- Cancellation and early stop ---------------------------------------------

TEST(EarlyStop, ObserverCancellationStopsTheRun)
{
    Graph g = testGraph();
    for (const char *algo : {"ga", "sa", "ts-grid"}) {
        CoccoFramework cocco(g, AcceleratorConfig{});
        CountingObserver obs;
        obs.cancelAfter = 60;
        SearchSpec spec = fastSpec(algo, 2000);
        spec.eval.observer = &obs;

        CoccoResult r = cocco.explore(spec);
        EXPECT_LT(r.samples, 2000) << algo;
        EXPECT_EQ(r.stop, StopReason::Cancelled) << algo;
    }
}

TEST(EarlyStop, CancelledRunKeepsCompletedBatches)
{
    Graph g = testGraph();
    CoccoFramework a(g, AcceleratorConfig{});
    CoccoFramework b(g, AcceleratorConfig{});

    CoccoResult full = a.explore(fastSpec("ga", 600));

    CountingObserver obs;
    obs.cancelAfter = 45; // mid second batch (population 30)
    SearchSpec spec = fastSpec("ga", 600);
    spec.eval.observer = &obs;
    CoccoResult cut = b.explore(spec);

    // The cancelled run's trace is a prefix of the full run's.
    ASSERT_GT(cut.samples, 0);
    ASSERT_LE(cut.samples, full.samples);
    for (size_t i = 0; i < cut.trace.size(); ++i)
        EXPECT_EQ(cut.trace[i].bestCost, full.trace[i].bestCost);
}

TEST(EarlyStop, StallLimitTrips)
{
    Graph g = testGraph();
    CoccoFramework cocco(g, AcceleratorConfig{});
    SearchSpec spec = fastSpec("ga", 50000);
    spec.eval.stallLimit = 40;

    CoccoResult r = cocco.explore(spec);
    EXPECT_LT(r.samples, 50000);
    EXPECT_EQ(r.stop, StopReason::Stalled);
}

TEST(EarlyStop, TimeLimitTrips)
{
    Graph g = testGraph();
    CoccoFramework cocco(g, AcceleratorConfig{});
    SearchSpec spec = fastSpec("ga", 50000);
    spec.eval.timeLimitSec = 1e-6; // already elapsed by the first check

    CoccoResult r = cocco.explore(spec);
    EXPECT_LT(r.samples, 50000);
    EXPECT_EQ(r.stop, StopReason::TimeLimit);
}

TEST(EarlyStop, StopReasonNames)
{
    EXPECT_STREQ(stopReasonName(StopReason::BudgetExhausted), "budget");
    EXPECT_STREQ(stopReasonName(StopReason::Cancelled), "cancelled");
    EXPECT_STREQ(stopReasonName(StopReason::TimeLimit), "time-limit");
    EXPECT_STREQ(stopReasonName(StopReason::Stalled), "stalled");
}

// --- Option assembly ---------------------------------------------------------

TEST(SpecOptions, AssemblyIsLossless)
{
    SearchSpec spec;
    spec.eval.sampleBudget = 1234;
    spec.eval.seed = 42;
    spec.eval.alpha = 0.01;
    spec.eval.metric = Metric::EMA;
    spec.eval.threads = 3;
    spec.eval.cacheEnabled = false;
    spec.ga.population = 77;
    spec.ga.elite = 5;
    spec.sa.neighborBatch = 9;
    spec.twoStep.samplesPerCandidate = 321;

    GaOptions ga = gaOptions(spec);
    EXPECT_EQ(ga.sampleBudget, 1234);
    EXPECT_EQ(ga.seed, 42u);
    EXPECT_EQ(ga.population, 77);
    EXPECT_EQ(ga.elite, 5);
    EXPECT_FALSE(ga.cacheEnabled);

    SaOptions sa = saOptions(spec);
    EXPECT_EQ(sa.sampleBudget, 1234);
    EXPECT_EQ(sa.neighborBatch, 9);
    EXPECT_EQ(sa.metric, Metric::EMA);

    TwoStepOptions ts = twoStepOptions(spec);
    EXPECT_EQ(ts.samplesPerCandidate, 321);
    EXPECT_EQ(ts.threads, 3);
    EXPECT_EQ(ts.alpha, 0.01);
}

// --- JSON run-spec parsing ---------------------------------------------------

TEST(SpecJson, FullDocumentRoundTrip)
{
    const char *doc = R"({
        "model": "GoogleNet",
        "algo": "sa",
        "mode": "partition",
        "style": "separate",
        "buffer": {"style": "separate", "actBytes": 524288,
                   "weightBytes": 262144},
        "samples": 900,
        "seed": 11,
        "alpha": 0.004,
        "metric": "ema",
        "threads": 2,
        "cacheEnabled": false,
        "cacheCapacity": 4096,
        "timeLimitSec": 30.5,
        "stallLimit": 200,
        "ga": {"population": 64, "crossoverRate": 0.7, "elite": 3},
        "sa": {"neighborBatch": 8, "tempStartFrac": 0.2},
        "twoStep": {"samplesPerCandidate": 100, "population": 16}
    })";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &v, &err)) << err;

    SearchSpec spec;
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;
    EXPECT_EQ(spec.workload.model, "GoogleNet"); // "model" shorthand
    EXPECT_EQ(spec.algo, "sa");
    EXPECT_FALSE(spec.eval.coExplore);
    EXPECT_EQ(spec.style, BufferStyle::Separate);
    EXPECT_EQ(spec.fixedBuffer.actBytes, 524288);
    EXPECT_EQ(spec.fixedBuffer.weightBytes, 262144);
    EXPECT_EQ(spec.eval.sampleBudget, 900);
    EXPECT_EQ(spec.eval.seed, 11u);
    EXPECT_DOUBLE_EQ(spec.eval.alpha, 0.004);
    EXPECT_EQ(spec.eval.metric, Metric::EMA);
    EXPECT_EQ(spec.eval.threads, 2);
    EXPECT_FALSE(spec.eval.cacheEnabled);
    EXPECT_EQ(spec.eval.cacheCapacity, 4096u);
    EXPECT_DOUBLE_EQ(spec.eval.timeLimitSec, 30.5);
    EXPECT_EQ(spec.eval.stallLimit, 200);
    EXPECT_EQ(spec.ga.population, 64);
    EXPECT_DOUBLE_EQ(spec.ga.crossoverRate, 0.7);
    EXPECT_EQ(spec.ga.elite, 3);
    EXPECT_EQ(spec.sa.neighborBatch, 8);
    EXPECT_DOUBLE_EQ(spec.sa.tempStartFrac, 0.2);
    EXPECT_EQ(spec.twoStep.samplesPerCandidate, 100);
    EXPECT_EQ(spec.twoStep.population, 16);
}

TEST(SpecJson, DefaultsSurviveAnEmptySpec)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("{}", &v, &err));
    SearchSpec spec;
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err));
    EXPECT_EQ(spec.algo, "ga");
    EXPECT_TRUE(spec.eval.coExplore);
    EXPECT_EQ(spec.eval.sampleBudget, 50000);
}

TEST(SpecJson, UnknownKeysAreErrors)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"({"samplez": 10})", &v, &err));
    SearchSpec spec;
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("samplez"), std::string::npos);

    ASSERT_TRUE(parseJson(R"({"ga": {"pop": 10}})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("pop"), std::string::npos);
}

TEST(SpecJson, OutOfRangeIntegersAreErrorsNotCrashes)
{
    JsonValue v;
    std::string err;
    SearchSpec spec;
    // Would truncate into a bogus thread count without the range check.
    ASSERT_TRUE(parseJson(R"({"threads": 5000000000})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    ASSERT_TRUE(parseJson(R"({"cacheCapacity": -1})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    // Beyond the exact-double range: rejected, not UB-cast.
    ASSERT_TRUE(parseJson(R"({"samples": 1e300})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("integer"), std::string::npos) << err;

    // An integer literal reads exactly from its text: the whole uint64
    // seed range, with no rounding past 2^53.
    err.clear();
    ASSERT_TRUE(parseJson(R"({"seed": 18446744073709551615})", &v, &err));
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;
    EXPECT_EQ(spec.eval.seed, 18446744073709551615ULL);
    ASSERT_TRUE(parseJson(R"({"seed": 9007199254740993})", &v, &err));
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;
    EXPECT_EQ(spec.eval.seed, 9007199254740993ULL);
    for (const char *doc :
         {R"({"seed": 18446744073709551616})", R"({"seed": -1})"}) {
        err.clear();
        ASSERT_TRUE(parseJson(doc, &v, &err));
        EXPECT_FALSE(searchSpecFromJson(v, &spec, &err)) << doc;
        EXPECT_NE(err.find("\"seed\" is out of range"), std::string::npos)
            << doc << ": " << err;
    }
}

TEST(SpecJson, TypeMismatchesAreErrors)
{
    JsonValue v;
    std::string err;
    SearchSpec spec;
    ASSERT_TRUE(parseJson(R"({"samples": "many"})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("samples"), std::string::npos);

    ASSERT_TRUE(parseJson(R"({"mode": "sideways"})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("mode"), std::string::npos);

    ASSERT_TRUE(parseJson(R"({"metric": "joules"})", &v, &err));
    EXPECT_FALSE(searchSpecFromJson(v, &spec, &err));
    EXPECT_NE(err.find("metric"), std::string::npos);
}

TEST(SpecJson, DuplicateKeysAreErrors)
{
    // The last copy used to win: 300 samples, a population of 40.
    SearchSpec spec;
    std::string err;
    EXPECT_FALSE(parseRunSpecText(R"({"model": "GoogleNet", "samples": 100,
                                      "samples": 300, "seed": 1})",
                                  &spec, &err));
    EXPECT_NE(err.find("duplicate key \"samples\""), std::string::npos)
        << err;
    EXPECT_FALSE(parseRunSpecText(
        R"({"model": "GoogleNet", "ga": {"population": 20,
                                         "population": 40}})",
        &spec, &err));
    EXPECT_NE(err.find("duplicate key \"ga.population\""), std::string::npos)
        << err;
}

TEST(SpecJson, WorkloadAndPlatformSections)
{
    const char *doc = R"({
        "workload": {"model": "RandWire-A",
                     "params": {"seed": 5, "batch": 2}},
        "platform": "edge",
        "algo": "ga", "samples": 100
    })";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
    SearchSpec spec;
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;
    EXPECT_EQ(spec.workload.model, "RandWire-A");
    EXPECT_EQ(spec.workload.params.seed, 5u);
    EXPECT_EQ(spec.workload.params.batch, 2);
    EXPECT_EQ(spec.platform.preset, "edge");

    // File workload + inline platform with a preset base.
    const char *doc2 = R"({
        "workload": {"file": "net.json"},
        "platform": {"base": "simba", "batch": 4},
        "samples": 100
    })";
    ASSERT_TRUE(parseJson(doc2, &v, &err)) << err;
    SearchSpec spec2;
    ASSERT_TRUE(searchSpecFromJson(v, &spec2, &err)) << err;
    EXPECT_EQ(spec2.workload.file, "net.json");
    EXPECT_TRUE(spec2.platform.inlineConfig);
    EXPECT_EQ(spec2.platform.config.batch, 4);
    EXPECT_EQ(spec2.platform.config.peRows, 4);

    // Platform file reference.
    const char *doc3 = R"({"platform": {"file": "p.json"}})";
    ASSERT_TRUE(parseJson(doc3, &v, &err)) << err;
    SearchSpec spec3;
    ASSERT_TRUE(searchSpecFromJson(v, &spec3, &err)) << err;
    EXPECT_EQ(spec3.platform.file, "p.json");
    EXPECT_FALSE(spec3.platform.inlineConfig);
}

TEST(SpecJson, WorkloadAndPlatformRejections)
{
    auto reject = [](const char *text, const char *needle) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(text, &v, &err)) << err;
        SearchSpec spec;
        EXPECT_FALSE(searchSpecFromJson(v, &spec, &err)) << text;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    // Two workload addresses at once.
    reject(R"({"model": "VGG16", "workload": {"model": "GPT"}})",
           "not both");
    reject(R"({"workload": {"model": "VGG16", "file": "g.json"}})",
           "not both");
    // Malformed sections.
    reject(R"({"workload": {"modle": "VGG16"}})", "modle");
    reject(R"({"workload": {"params": {"widthMult": -1}}})",
           "widthMult");
    reject(R"({"platform": 7})", "platform");
    reject(R"({"platform": {"file": "p.json", "batch": 2}})",
           "other keys");
    reject(R"({"platform": {"coores": 2}})", "coores");
    // A platform is one core: scale-out is a deployment's.
    reject(R"({"platform": {"base": "simba", "cores": 4}})",
           "unknown run-spec key \"platform.cores\"");

    // simba-x4 is no preset: a co-schedule spec on it is refused,
    // naming the known presets.
    SearchSpec spec;
    std::string err;
    ASSERT_TRUE(parseRunSpecText(R"({"workload_set": [
        {"name": "a", "model": "GoogleNet", "arrival_rate_hz": 10,
         "sla_latency_ms": 50}], "platform": "simba-x4"})",
                                 &spec, &err))
        << err;
    SpecRun run;
    EXPECT_EQ(run.prepare(spec), "unknown platform \"simba-x4\" (known: "
                                 "simba, edge, cloud)");
}

// --- The one spec rule ------------------------------------------------------

TEST(SpecRules, EachRuleRejectsWithItsReason)
{
    struct Row
    {
        const char *what;
        void (*edit)(SearchSpec &);
        const char *reason; ///< expected substring ("" = admitted)
    };
    const Row rows[] = {
        {"unknown algo", [](SearchSpec &s) { s.algo = "nope"; },
         "unknown search algorithm \"nope\""},
        {"no samples", [](SearchSpec &s) { s.eval.sampleBudget = 0; },
         "samples must be >= 1"},
        {"no workload", [](SearchSpec &s) { s.workload.model.clear(); },
         "spec addresses no workload"},
        {"bad workload_set",
         [](SearchSpec &s) {
             TenantSpec t;
             t.name = "a";
             t.workload.model = "GoogleNet";
             t.arrivalRateHz = 10.0;
             t.slaLatencyMs = 10.0;
             s.workloadSet.tenants = {t, t};
         },
         "duplicate tenant name \"a\""},
        {"ga population", [](SearchSpec &s) { s.ga.population = 1; },
         "ga.population must be >= 2"},
        {"ga tournament", [](SearchSpec &s) { s.ga.tournament = 0; },
         "ga.tournament must be >= 1"},
        {"ga elite above population",
         [](SearchSpec &s) { s.ga.elite = s.ga.population + 1; },
         "ga.elite must be in [0, ga.population]"},
        {"negative ga elite", [](SearchSpec &s) { s.ga.elite = -1; },
         "ga.elite must be in [0, ga.population]"},
        {"sa neighborBatch",
         [](SearchSpec &s) {
             s.algo = "sa";
             s.sa.neighborBatch = 0;
         },
         "sa.neighborBatch must be >= 1"},
        {"two-step population",
         [](SearchSpec &s) {
             s.algo = "ts-random";
             s.twoStep.population = 1;
         },
         "twoStep.population must be >= 2"},
        {"two-step samplesPerCandidate",
         [](SearchSpec &s) {
             s.algo = "ts-grid";
             s.twoStep.samplesPerCandidate = 0;
         },
         "twoStep.samplesPerCandidate must be >= 1"},
        {"empty line-up",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers.clear();
         },
         "portfolio.racers must not be empty"},
        {"self race",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers = {"ga", "portfolio"};
         },
         "a portfolio cannot race itself"},
        {"unknown racer",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers = {"ga", "nope"};
         },
         "unknown racer \"nope\""},
        {"duplicate racer",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers = {"ga", "sa", "ga"};
         },
         "duplicate racer \"ga\""},
        {"checkEvals",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.checkEvals = 0;
         },
         "portfolio.checkEvals must be >= 1"},
        {"warmupEvals",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.warmupEvals = -1;
         },
         "portfolio.warmupEvals must be >= 0"},
        // The portfolio applies each racer's own rule...
        {"GA racer",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.ga.population = 1;
         },
         "ga.population must be >= 2"},
        {"SA racer",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers = {"sa"};
             s.sa.neighborBatch = 0;
         },
         "sa.neighborBatch must be >= 1"},
        {"two-step racer",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers = {"ts-random", "sa"};
             s.twoStep.population = 1;
         },
         "twoStep.population must be >= 2"},
        // ...and every rule reads only its own block.
        {"GA ignores two-step", [](SearchSpec &s) { s.twoStep.population = 1; },
         ""},
        {"racers not raced",
         [](SearchSpec &s) {
             s.algo = "portfolio";
             s.portfolio.racers = {"sa"};
             s.ga.population = 1;
         },
         ""},
        {"greedy-place has no rule",
         [](SearchSpec &s) {
             s.algo = "greedy-place";
             s.ga.population = 1;
         },
         ""},
    };
    for (const Row &row : rows) {
        SearchSpec spec = fastSpec("ga");
        spec.workload.model = "GoogleNet";
        row.edit(spec);
        std::string why = runSpecError(spec);
        if (*row.reason == '\0')
            EXPECT_EQ(why, "") << row.what;
        else
            EXPECT_NE(why.find(row.reason), std::string::npos)
                << row.what << ": " << why;
    }
}

TEST(SpecRules, EverySpecCiRunsIsAdmitted)
{
    // The smoke specs of .github/workflows/ci.yml: ts-grid, workload
    // and platform files, deployment, co-schedule, portfolio, pareto.
    const char *docs[] = {
        R"({"model": "GoogleNet", "algo": "ts-grid", "mode": "coexplore",
            "style": "shared", "samples": 800, "seed": 1,
            "metric": "energy",
            "twoStep": {"samplesPerCandidate": 200, "population": 20}})",
        R"({"workload": {"file": "ci-workload.json",
                         "params": {"batch": 2}},
            "platform": {"file": "ci-platform.json"},
            "algo": "ga", "samples": 600, "seed": 1,
            "ga": {"population": 30}})",
        R"({"model": "GoogleNet", "algo": "ga", "samples": 600, "seed": 1,
            "ga": {"population": 30}, "deployment": {"cores": 2}})",
        R"({"workload_set": [
              {"name": "vision", "model": "GoogleNet",
               "arrival_rate_hz": 40.0, "sla_latency_ms": 18.0},
              {"name": "mobile", "model": "MobileNetV2",
               "arrival_rate_hz": 25.0, "sla_latency_ms": 30.0}],
            "deployment": "big-little", "algo": "ga", "samples": 400,
            "seed": 7, "ga": {"population": 12}})",
        R"({"model": "GoogleNet", "algo": "portfolio", "samples": 1200,
            "seed": 1, "threads": 2, "ga": {"population": 25},
            "twoStep": {"samplesPerCandidate": 300, "population": 20},
            "portfolio": {"racers": ["ga", "sa", "ts-random", "ts-grid"],
                          "checkEvals": 200, "warmupEvals": 400}})",
        R"({"model": "GoogleNet", "algo": "ga", "mode": "pareto",
            "samples": 1000, "seed": 1, "alpha": 0.002,
            "metric": "energy", "ga": {"population": 30}})",
    };
    for (const char *doc : docs) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
        SearchSpec spec;
        ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;
        EXPECT_EQ(runSpecError(spec), "") << doc;
    }
}

// --- The self-contained run contract ----------------------------------------

TEST(SelfContainedSpec, JsonSpecMatchesCompiledInConfiguration)
{
    // Acceptance criterion: one JSON document naming a registered
    // model with non-default ModelParams and a named platform preset
    // reproduces the equivalent compiled-in run bit-identically.
    const char *doc = R"({
        "workload": {"model": "Transformer",
                     "params": {"seqLen": 128, "depth": 2}},
        "platform": "edge",
        "algo": "ga", "samples": 300, "seed": 7,
        "ga": {"population": 30}
    })";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
    SearchSpec spec;
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;

    Graph spec_graph;
    ASSERT_TRUE(resolveWorkload(spec.workload, &spec_graph, &err)) << err;
    AcceleratorConfig spec_accel;
    ASSERT_TRUE(resolvePlatform(spec.platform, &spec_accel, &err)) << err;

    // The compiled-in equivalent, assembled by hand.
    ModelParams params;
    params.seqLen = 128;
    params.depth = 2;
    Graph cpp_graph = buildModel("Transformer", params);
    AcceleratorConfig cpp_accel = platformPreset("edge");
    SearchSpec cpp_spec = fastSpec("ga", 300);

    CoccoFramework via_spec(spec_graph, spec_accel);
    CoccoFramework via_cpp(cpp_graph, cpp_accel);
    CoccoResult a = via_spec.explore(spec);
    CoccoResult b = via_cpp.explore(cpp_spec);

    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.partition.block, b.partition.block);
    EXPECT_EQ(a.buffer.totalBytes(), b.buffer.totalBytes());
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost);

    // A JSON-imported copy of the workload gives the same result.
    JsonValue graph_doc;
    ASSERT_TRUE(parseJson(graphToJson(spec_graph), &graph_doc, &err))
        << err;
    Graph imported;
    ASSERT_TRUE(graphFromJson(graph_doc, &imported, &err)) << err;
    CoccoFramework via_import(imported, spec_accel);
    CoccoResult c = via_import.explore(spec);
    EXPECT_EQ(c.objective, a.objective);
    EXPECT_EQ(c.samples, a.samples);
    EXPECT_EQ(c.partition.block, a.partition.block);
}

TEST(SelfContainedSpec, WorkloadResolutionErrors)
{
    WorkloadSpec w;
    Graph g;
    std::string err;
    EXPECT_FALSE(resolveWorkload(w, &g, &err));
    EXPECT_NE(err.find("required"), std::string::npos);

    w.model = "NotANet";
    err.clear();
    EXPECT_FALSE(resolveWorkload(w, &g, &err));
    EXPECT_NE(err.find("unknown model"), std::string::npos);
    EXPECT_NE(err.find("VGG16"), std::string::npos); // names the options

    w.model.clear();
    w.file = "/nonexistent/net.json";
    err.clear();
    EXPECT_FALSE(resolveWorkload(w, &g, &err));
    EXPECT_NE(err.find("cannot read"), std::string::npos);

    // Shape params cannot silently be dropped on a file workload
    // (batch is the one param that still applies).
    w.params.widthMult = 2.0;
    err.clear();
    EXPECT_FALSE(resolveWorkload(w, &g, &err));
    EXPECT_NE(err.find("do not apply"), std::string::npos);
}

TEST(SpecJson, ParsedSpecRunsIdenticallyToTheSameSpecInCpp)
{
    const char *doc = R"({
        "algo": "ga", "samples": 300, "seed": 7,
        "ga": {"population": 30}
    })";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &v, &err));
    SearchSpec from_json;
    ASSERT_TRUE(searchSpecFromJson(v, &from_json, &err));

    Graph g = testGraph();
    CoccoFramework a(g, AcceleratorConfig{});
    CoccoFramework b(g, AcceleratorConfig{});
    CoccoResult r1 = a.explore(from_json);
    CoccoResult r2 = b.explore(fastSpec("ga", 300));
    EXPECT_EQ(r1.objective, r2.objective);
    EXPECT_EQ(r1.samples, r2.samples);
    EXPECT_EQ(r1.partition.block, r2.partition.block);
}
