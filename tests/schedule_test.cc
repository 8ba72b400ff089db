/**
 * @file
 * Tests for the elementary-operation schedule generator against the
 * paper's Figure 6 snapshot, plus the data-dependency invariant: a
 * consumer's input requirement is always resident in its producers'
 * windows when it updates.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "tileflow/schedule.h"
#include "tileflow/scheme.h"

using namespace cocco;

namespace {

Layer
layer1d(const char *name, LayerKind kind, int h, int c, int k, int s)
{
    Layer l;
    l.name = name;
    l.kind = kind;
    l.outH = h;
    l.outW = 1;
    l.outC = c;
    l.kernel = k;
    l.stride = s;
    return l;
}

/** The Figure 5/6 example graph (see tileflow_test.cc). */
Graph
paperExample()
{
    Graph g("fig6");
    g.addNode(layer1d("in_m2", LayerKind::Input, 64, 1, 1, 1));
    g.addNode(layer1d("in_m1", LayerKind::Input, 64, 1, 1, 1));
    g.addNode(layer1d("n0", LayerKind::Conv, 32, 1, 3, 2), {0});
    g.addNode(layer1d("n1", LayerKind::Conv, 64, 1, 3, 1), {0, 1});
    g.addNode(layer1d("n2", LayerKind::Conv, 64, 1, 1, 1), {1});
    return g;
}

/** Last resident window of @p node in a schedule. */
std::pair<int, int>
windowOf(const ElementarySchedule &sched, NodeId node)
{
    std::pair<int, int> out{-1, -1};
    for (const UpdateStep &s : sched.steps)
        if (s.node == node)
            out = {s.lo, s.hi};
    return out;
}

} // namespace

class ScheduleFigure6 : public ::testing::Test
{
  protected:
    Graph g_ = paperExample();
    ExecutionScheme s_ = deriveConsumptionScheme(g_, {2, 3, 4}, 2);
};

TEST_F(ScheduleFigure6, StepCountMatchesUpdNums)
{
    ElementarySchedule op = buildElementarySchedule(g_, s_, 0);
    // upd_num = {1, 2, 1, 2, 2} -> 8 updates per elementary op.
    EXPECT_EQ(op.steps.size(), 8u);
}

TEST_F(ScheduleFigure6, FirstOperationFillsInitialWindows)
{
    ElementarySchedule op = buildElementarySchedule(g_, s_, 0);
    // Figure 6, first elementary operation: in(-2) holds [0:6);
    // in(-1) ends at [2:6) after its second update (Delta 2, x 4);
    // the outputs end at [2:4) after their second updates.
    EXPECT_EQ(windowOf(op, 0), (std::pair<int, int>{0, 6}));
    EXPECT_EQ(windowOf(op, 1), (std::pair<int, int>{2, 6}));
    EXPECT_EQ(windowOf(op, 2), (std::pair<int, int>{0, 2}));
    EXPECT_EQ(windowOf(op, 3), (std::pair<int, int>{2, 4}));
    EXPECT_EQ(windowOf(op, 4), (std::pair<int, int>{2, 4}));
}

TEST_F(ScheduleFigure6, WarmupWindowsStartAtZero)
{
    ElementarySchedule op = buildElementarySchedule(g_, s_, 0);
    // First update of every node starts at index 0.
    std::map<NodeId, int> first_lo;
    for (const UpdateStep &s : op.steps)
        if (!first_lo.count(s.node) && s.index == 0)
            first_lo[s.node] = s.lo;
    for (auto [node, lo] : first_lo)
        EXPECT_EQ(lo, 0) << "node " << node;
}

TEST_F(ScheduleFigure6, SecondOperationSlidesByUpdTimesDelta)
{
    ElementarySchedule op1 = buildElementarySchedule(g_, s_, 1);
    // in(-2): upd 1 x Delta 4 -> second op window [4:10).
    EXPECT_EQ(windowOf(op1, 0), (std::pair<int, int>{4, 10}));
    // in(-1): upd 2 x Delta 2 -> after op 1's two updates: [6:10).
    EXPECT_EQ(windowOf(op1, 1), (std::pair<int, int>{6, 10}));
    // n0 (output, upd 1 x Delta 2): [2:4).
    EXPECT_EQ(windowOf(op1, 2), (std::pair<int, int>{2, 4}));
    // n1, n2 (upd 2 x Delta 2): last update at [6:8).
    EXPECT_EQ(windowOf(op1, 3), (std::pair<int, int>{6, 8}));
    EXPECT_EQ(windowOf(op1, 4), (std::pair<int, int>{6, 8}));
}

TEST_F(ScheduleFigure6, OperationCountCoversOutputs)
{
    ElementarySchedule op = buildElementarySchedule(g_, s_, 0);
    // Largest output sweep: n1/n2 have H=64, x=2, advance 4/op ->
    // 1 + ceil(62/4) = 17 ops; n0 has H=32, advance 2 -> 16 ops.
    EXPECT_EQ(op.operationCount, 17);
}

TEST_F(ScheduleFigure6, ProducersUpdateBeforeConsumersPerSlot)
{
    ElementarySchedule op = buildElementarySchedule(g_, s_, 3);
    std::map<NodeId, size_t> last_pos;
    for (size_t i = 0; i < op.steps.size(); ++i)
        last_pos[op.steps[i].node] = i;
    // First update of a consumer comes after the first update of each
    // producer (slot-0 ordering is topological).
    std::map<NodeId, size_t> first_pos;
    for (size_t i = 0; i < op.steps.size(); ++i)
        if (!first_pos.count(op.steps[i].node))
            first_pos[op.steps[i].node] = i;
    EXPECT_LT(first_pos[0], first_pos[2]);
    EXPECT_LT(first_pos[0], first_pos[3]);
    EXPECT_LT(first_pos[1], first_pos[3]);
    EXPECT_LT(first_pos[1], first_pos[4]);
}

TEST_F(ScheduleFigure6, ConsumerInputsResidentInProducerWindows)
{
    // The core correctness property: whenever a consumer performs its
    // j-th update in op k, the input rows it reads lie inside the
    // producer's resident window at that moment.
    for (int64_t k = 0; k < 17; ++k) {
        ElementarySchedule op = buildElementarySchedule(g_, s_, k);
        std::map<NodeId, std::pair<int, int>> window;
        // Seed with the windows left by the previous operation.
        if (k > 0) {
            ElementarySchedule prev = buildElementarySchedule(g_, s_, k - 1);
            for (const UpdateStep &s : prev.steps)
                window[s.node] = {s.lo, s.hi};
        }
        for (const UpdateStep &s : op.steps) {
            window[s.node] = {s.lo, s.hi};
            if (s.external)
                continue;
            const Layer &l = g_.layer(s.node);
            // Newest produced rows: the consumer's update advances by
            // deltaH; their input requirement:
            const NodeScheme *ns = s_.find(s.node);
            int new_lo = std::max(s.lo, s.hi - ns->deltaH);
            int need_lo = new_lo * l.stride;
            int need_hi = (s.hi - 1) * l.stride + l.kernel;
            for (NodeId u : g_.preds(s.node)) {
                auto it = window.find(u);
                ASSERT_NE(it, window.end());
                int have_hi = it->second.second;
                // Padding rows past the producer tensor are never
                // stored ("free from padding data"), so the
                // requirement clamps to the tensor extent.
                int clamped = std::min(need_hi, g_.layer(u).outH);
                EXPECT_LE(clamped, have_hi)
                    << "op " << k << " node " << s.node << " producer "
                    << u;
                (void)need_lo; // older rows may be consumed already
            }
        }
    }
}

TEST(Schedule, SingleLayerDegenerates)
{
    Graph g("single");
    g.addNode(layer1d("in", LayerKind::Input, 16, 1, 1, 1));
    g.addNode(layer1d("c", LayerKind::Conv, 16, 1, 3, 1), {0});
    ExecutionScheme s = deriveConsumptionScheme(g, {1}, 4);
    ElementarySchedule op = buildElementarySchedule(g, s, 0);
    EXPECT_EQ(op.steps.size(), 2u); // one update each
    EXPECT_EQ(op.operationCount, 4); // 16 rows / 4 per op
}

TEST(Schedule, StrRendersSteps)
{
    Graph g("single");
    g.addNode(layer1d("in", LayerKind::Input, 16, 1, 1, 1));
    g.addNode(layer1d("c", LayerKind::Conv, 16, 1, 3, 1), {0});
    ExecutionScheme s = deriveConsumptionScheme(g, {1}, 4);
    ElementarySchedule op = buildElementarySchedule(g, s, 0);
    std::string text = op.str(g);
    EXPECT_NE(text.find("in (ext)"), std::string::npos);
    EXPECT_NE(text.find("c upd#0"), std::string::npos);
}

TEST(ScheduleDeath, NegativeOpIndex)
{
    Graph g("single");
    g.addNode(layer1d("in", LayerKind::Input, 16, 1, 1, 1));
    g.addNode(layer1d("c", LayerKind::Conv, 16, 1, 3, 1), {0});
    ExecutionScheme s = deriveConsumptionScheme(g, {1}, 4);
    EXPECT_DEATH(buildElementarySchedule(g, s, -1), "negative");
}

/** Windows never exceed tensor extents across a whole sweep. */
class ScheduleSweep : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(ScheduleSweep, WindowsStayInBounds)
{
    Graph g = paperExample();
    ExecutionScheme s = deriveConsumptionScheme(g, {2, 3, 4}, 2);
    ElementarySchedule op = buildElementarySchedule(g, s, GetParam());
    for (const UpdateStep &st : op.steps) {
        EXPECT_GE(st.lo, 0);
        EXPECT_LT(st.lo, st.hi);
        EXPECT_LE(st.hi, g.layer(st.node).outH);
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, ScheduleSweep,
                         ::testing::Values(0, 1, 2, 5, 10, 15, 16));

// ---------------------------------------------------------------------------
// Multi-tenant co-scheduling (schedule/workload_set.h, co_scheduler.h)
// ---------------------------------------------------------------------------

#include "core/cocco.h"
#include "core/serialize.h"
#include "schedule/co_scheduler.h"
#include "schedule/workload_set.h"
#include "search/driver.h"
#include "serve/service.h"

namespace {

/** Read @p set as a run spec's workload_set section (a one-tenant set
 *  folds into the spec's plain workload). */
bool
readSet(const std::string &set, SearchSpec *spec, std::string *err)
{
    return parseRunSpecText(R"({"workload_set": )" + set + "}", spec, err);
}

WorkloadSet
parseSet(const std::string &text, std::string *err)
{
    SearchSpec spec;
    return readSet(text, &spec, err) ? spec.workloadSet : WorkloadSet{};
}

void
expectRejected(const std::string &text, const std::string &needle)
{
    SearchSpec spec;
    std::string err;
    EXPECT_FALSE(readSet(text, &spec, &err)) << text;
    EXPECT_NE(err.find(needle), std::string::npos)
        << "error \"" << err << "\" lacks \"" << needle << "\"";
}

} // namespace

TEST(WorkloadSetParse, ValidTwoTenantSet)
{
    std::string err;
    WorkloadSet set = parseSet(
        R"([{"name": "vision", "model": "GoogleNet",
             "arrival_rate_hz": 40, "sla_latency_ms": 18},
            {"name": "mobile", "model": "MobileNetV2",
             "params": {"batch": 2},
             "arrival_rate_hz": 25, "sla_latency_ms": 30}])",
        &err);
    ASSERT_EQ(set.size(), 2) << err;
    EXPECT_TRUE(set.enabled());
    EXPECT_EQ(set.tenants[0].name, "vision");
    EXPECT_EQ(set.tenants[0].workload.model, "GoogleNet");
    EXPECT_DOUBLE_EQ(set.tenants[0].arrivalRateHz, 40.0);
    EXPECT_DOUBLE_EQ(set.tenants[0].slaLatencyMs, 18.0);
    EXPECT_EQ(set.tenants[1].workload.params.batch, 2);
}

TEST(WorkloadSetParse, RejectsDuplicateTenantNames)
{
    expectRejected(
        R"([{"name": "t", "model": "VGG16",
             "arrival_rate_hz": 1, "sla_latency_ms": 10},
            {"name": "t", "model": "GoogleNet",
             "arrival_rate_hz": 1, "sla_latency_ms": 10}])",
        "duplicate tenant name");
}

TEST(WorkloadSetParse, RejectsZeroAndNegativeArrivalRates)
{
    expectRejected(R"([{"name": "t", "model": "VGG16",
                        "arrival_rate_hz": 0, "sla_latency_ms": 10}])",
                   "arrival_rate_hz");
    expectRejected(R"([{"name": "t", "model": "VGG16",
                        "arrival_rate_hz": -3, "sla_latency_ms": 10}])",
                   "arrival_rate_hz");
}

TEST(WorkloadSetParse, RejectsMissingSla)
{
    expectRejected(R"([{"name": "t", "model": "VGG16",
                        "arrival_rate_hz": 5}])",
                   "sla_latency_ms");
}

TEST(WorkloadSetParse, RejectsUnknownModel)
{
    expectRejected(R"([{"name": "t", "model": "NoSuchNet",
                        "arrival_rate_hz": 5, "sla_latency_ms": 10}])",
                   "unknown model");
}

TEST(WorkloadSetParse, RejectsUnknownKeysAndEmptySets)
{
    expectRejected(R"([{"name": "t", "model": "VGG16", "rate": 5,
                        "arrival_rate_hz": 5, "sla_latency_ms": 10}])",
                   "unknown run-spec key \"workload_set[0].rate\"");
    expectRejected(R"([])", "at least one tenant");
    expectRejected(R"([{"name": "t", "model": "VGG16", "file": "g.json",
                        "arrival_rate_hz": 5, "sla_latency_ms": 10}])",
                   "model");
}

TEST(WorkloadSetParse, RejectsDuplicateKeys)
{
    SearchSpec spec;
    std::string err;
    EXPECT_FALSE(parseRunSpecText(R"({"workload_set": [
        {"name": "t", "model": "VGG16", "arrival_rate_hz": 5,
         "arrival_rate_hz": 6, "sla_latency_ms": 10}]})",
                                  &spec, &err));
    EXPECT_NE(err.find("duplicate key \"workload_set[0].arrival_rate_hz\""),
              std::string::npos)
        << err;
}

TEST(WorkloadSetParse, RoundTripsThroughJson)
{
    std::string err;
    WorkloadSet set = parseSet(
        R"([{"name": "a", "model": "GoogleNet",
             "params": {"batch": 2, "widthMult": 0.5},
             "arrival_rate_hz": 12.5, "sla_latency_ms": 7.25},
            {"name": "b", "model": "RandWire-A",
             "params": {"seed": 9},
             "arrival_rate_hz": 3, "sla_latency_ms": 40}])",
        &err);
    ASSERT_EQ(set.size(), 2) << err;

    SearchSpec spec;
    ASSERT_TRUE(readSet(workloadSetJson(set), &spec, &err)) << err;
    const WorkloadSet &back = spec.workloadSet;
    ASSERT_EQ(back.size(), set.size());
    for (int t = 0; t < set.size(); ++t) {
        EXPECT_EQ(back.tenants[t].name, set.tenants[t].name);
        EXPECT_EQ(back.tenants[t].workload.model,
                  set.tenants[t].workload.model);
        EXPECT_EQ(back.tenants[t].workload.params.batch,
                  set.tenants[t].workload.params.batch);
        EXPECT_EQ(back.tenants[t].workload.params.widthMult,
                  set.tenants[t].workload.params.widthMult);
        EXPECT_EQ(back.tenants[t].workload.params.seed,
                  set.tenants[t].workload.params.seed);
        EXPECT_DOUBLE_EQ(back.tenants[t].arrivalRateHz,
                         set.tenants[t].arrivalRateHz);
        EXPECT_DOUBLE_EQ(back.tenants[t].slaLatencyMs,
                         set.tenants[t].slaLatencyMs);
    }
}

TEST(WorkloadSetSpec, ConflictsWithWorkloadSection)
{
    SearchSpec spec;
    std::string err;
    EXPECT_FALSE(parseRunSpecText(
        R"({"workload": {"model": "VGG16"},
            "workload_set": [{"name": "t", "model": "VGG16",
                              "arrival_rate_hz": 1,
                              "sla_latency_ms": 10}]})",
        &spec, &err));
    EXPECT_NE(err.find("workload_set"), std::string::npos) << err;
}

TEST(WorkloadSetSpec, SingleTenantNormalizesToPlainWorkload)
{
    SearchSpec spec;
    std::string err;
    ASSERT_TRUE(parseRunSpecText(
        R"({"workload_set": [{"name": "only", "model": "GoogleNet",
                              "params": {"batch": 2},
                              "arrival_rate_hz": 5,
                              "sla_latency_ms": 20}]})",
        &spec, &err))
        << err;
    EXPECT_FALSE(spec.workloadSet.enabled());
    EXPECT_EQ(spec.workload.model, "GoogleNet");
    EXPECT_EQ(spec.workload.params.batch, 2);
}

namespace {

/** A 2-tenant set on the big-little preset, small enough for tests. */
struct CoScheduleFixtureData
{
    std::vector<Graph> graphs;
    WorkloadSet set;
    DeploymentConfig dep;
};

CoScheduleFixtureData
bigLittleTwoTenants()
{
    CoScheduleFixtureData d;
    std::string err;
    WorkloadSet set = parseSet(
        R"([{"name": "vision", "model": "GoogleNet",
             "arrival_rate_hz": 40, "sla_latency_ms": 18},
            {"name": "mobile", "model": "MobileNetV2",
             "arrival_rate_hz": 25, "sla_latency_ms": 30}])",
        &err);
    EXPECT_EQ(set.size(), 2) << err;
    d.set = set;
    for (const TenantSpec &t : set.tenants) {
        Graph g;
        EXPECT_TRUE(resolveWorkload(t.workload, &g, &err)) << err;
        d.graphs.push_back(std::move(g));
    }
    AcceleratorConfig accel;
    EXPECT_TRUE(resolvePlatform(PlatformSpec{}, &accel, &err)) << err;
    DeploymentSpec dspec;
    dspec.enabled = true;
    dspec.preset = "big-little";
    EXPECT_TRUE(resolveDeployment(dspec, accel, &d.dep, &err)) << err;
    return d;
}

SearchSpec
smallSpec(const std::string &algo)
{
    SearchSpec spec;
    spec.algo = algo;
    spec.eval.sampleBudget = 400;
    spec.eval.seed = 7;
    spec.ga.population = 12;
    return spec;
}

} // namespace

TEST(CoSchedule, SearchedBeatsGreedyOnBigLittle)
{
    CoScheduleFixtureData d = bigLittleTwoTenants();
    ASSERT_EQ(d.graphs.size(), 2u);

    CoScheduler greedy(d.graphs, d.set, d.dep);
    ScheduleResult gr = greedy.explore(smallSpec("greedy-place"));
    CoScheduler searched(d.graphs, d.set, d.dep);
    ScheduleResult sr = searched.explore(smallSpec("ga"));

    ASSERT_EQ(static_cast<int>(gr.cost.tenants.size()), d.set.size());
    ASSERT_EQ(static_cast<int>(sr.cost.tenants.size()), d.set.size());

    // The ISSUE's acceptance criterion: a registered searcher finds a
    // schedule with strictly fewer SLA violations than greedy-place,
    // or a strictly lower mean latency when both are violation-free.
    if (sr.cost.slaViolations == gr.cost.slaViolations) {
        EXPECT_EQ(sr.cost.slaViolations, 0);
        EXPECT_LT(sr.cost.meanLatencyMs, gr.cost.meanLatencyMs);
    } else {
        EXPECT_LT(sr.cost.slaViolations, gr.cost.slaViolations);
    }
    EXPECT_LE(sr.objective, gr.objective);
}

TEST(CoSchedule, GreedyIsDeterministic)
{
    CoScheduleFixtureData d = bigLittleTwoTenants();
    CoScheduler a(d.graphs, d.set, d.dep);
    CoScheduler b(d.graphs, d.set, d.dep);
    ScheduleResult ra = a.explore(smallSpec("greedy-place"));
    ScheduleResult rb = b.explore(smallSpec("greedy-place"));
    EXPECT_EQ(ra.schedule.coreOf, rb.schedule.coreOf);
    EXPECT_DOUBLE_EQ(ra.objective, rb.objective);
    EXPECT_EQ(ra.samples, rb.samples);
}

TEST(CoSchedule, SaturatedCoreViolatesEverySla)
{
    TenantSpec hot;
    hot.name = "hot";
    hot.workload.model = "VGG16";
    hot.arrivalRateHz = 100000;
    hot.slaLatencyMs = 1;
    WorkloadSet set;
    set.tenants.push_back(hot);
    std::string err;
    Graph g;
    ASSERT_TRUE(resolveWorkload(set.tenants[0].workload, &g, &err));
    AcceleratorConfig accel;
    ASSERT_TRUE(resolvePlatform(PlatformSpec{}, &accel, &err));
    std::vector<Graph> graphs;
    graphs.push_back(std::move(g));
    ScheduleCostModel model(graphs, set,
                            homogeneousDeployment(accel, 1));

    Schedule s;
    s.buffer.style = BufferStyle::Separate;
    s.buffer.actBytes = 1024 * 1024;
    s.buffer.weightBytes = 1152 * 1024;
    s.coreOf = {0};
    s.parts = {Partition::singletons(graphs[0])};
    ScheduleCost c = model.evaluate(s);
    ASSERT_EQ(c.tenants.size(), 1u);
    EXPECT_EQ(c.slaViolations, 1);
    EXPECT_TRUE(c.tenants[0].slaViolation);
    EXPECT_DOUBLE_EQ(c.tenants[0].latencyMs, kSaturatedLatencyMs);
    EXPECT_GE(c.coreUtilization[0], 1.0);
}

TEST(CoSchedule, ViolationsDominateTheObjective)
{
    ScheduleCost clean;
    clean.feasible = true;
    clean.slaViolations = 0;
    clean.meanLatencyMs = 900.0;
    ScheduleCost violated;
    violated.feasible = true;
    violated.slaViolations = 1;
    violated.meanLatencyMs = 1.0;
    EXPECT_LT(scheduleObjective(clean), scheduleObjective(violated));

    ScheduleCost infeasible;
    infeasible.feasible = false;
    infeasible.slaViolations = 0;
    EXPECT_LT(scheduleObjective(violated),
              scheduleObjective(infeasible));
}

TEST(CoSchedule, ContextHashSeesRatesAndSlas)
{
    CoScheduleFixtureData d = bigLittleTwoTenants();
    ScheduleCostModel base(d.graphs, d.set, d.dep);

    WorkloadSet bumpedRate = d.set;
    bumpedRate.tenants[0].arrivalRateHz += 1.0;
    ScheduleCostModel rate(d.graphs, bumpedRate, d.dep);

    WorkloadSet bumpedSla = d.set;
    bumpedSla.tenants[1].slaLatencyMs += 1.0;
    ScheduleCostModel sla(d.graphs, bumpedSla, d.dep);

    const uint64_t seed = 0x9e3779b97f4a7c15ull;
    EXPECT_NE(base.contextHash(seed), rate.contextHash(seed));
    EXPECT_NE(base.contextHash(seed), sla.contextHash(seed));
    EXPECT_EQ(base.contextHash(seed),
              ScheduleCostModel(d.graphs, d.set, d.dep)
                  .contextHash(seed));
}

TEST(CoSchedule, SingleTenantSetMatchesPlainRunBitForBit)
{
    const char *plain = R"({
        "workload": {"model": "GoogleNet"},
        "platform": "simba",
        "algo": "ga", "samples": 300, "seed": 3,
        "ga": {"population": 10}
    })";
    const char *asSet = R"({
        "workload_set": [{"name": "only", "model": "GoogleNet",
                          "arrival_rate_hz": 10,
                          "sla_latency_ms": 50}],
        "platform": "simba",
        "algo": "ga", "samples": 300, "seed": 3,
        "ga": {"population": 10}
    })";

    auto runOne = [](const char *text) {
        SearchSpec spec;
        std::string err;
        EXPECT_TRUE(parseRunSpecText(text, &spec, &err)) << err;
        EXPECT_FALSE(spec.workloadSet.enabled());
        Graph g;
        EXPECT_TRUE(resolveWorkload(spec.workload, &g, &err)) << err;
        AcceleratorConfig accel;
        EXPECT_TRUE(resolvePlatform(spec.platform, &accel, &err)) << err;
        CoccoFramework cocco(g, accel);
        CoccoResult r = cocco.explore(spec);
        return resultToJson(g, r);
    };
    EXPECT_EQ(runOne(plain), runOne(asSet));
}
