#include "schedule/co_scheduler.h"

#include <algorithm>
#include <cmath>

#include "core/metrics.h"
#include "partition/repair.h"
#include "schedule/greedy_place.h"
#include "sim/timeline.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/logging.h"

namespace cocco {

namespace {

/** A core is saturated at (or numerically near) full utilization. */
constexpr double kSaturationUtil = 0.999;

bool
sameBuffer(const BufferConfig &a, const BufferConfig &b)
{
    return a.style == b.style && a.actBytes == b.actBytes &&
           a.weightBytes == b.weightBytes &&
           a.sharedBytes == b.sharedBytes;
}

/** Peak compute throughput, the greedy "fastest core" order key. */
double
coreThroughput(const AcceleratorConfig &a)
{
    return a.macsPerCycle() * a.clockGhz;
}

bool
cancelled(const SearchSpec &spec)
{
    return spec.eval.observer && spec.eval.observer->cancelled();
}

} // namespace

double
scheduleObjective(const ScheduleCost &c)
{
    if (!c.feasible)
        return kInfeasiblePenalty + c.slaViolations;
    return c.slaViolations * kSlaViolationPenalty + c.meanLatencyMs;
}

ScheduleCostModel::ScheduleCostModel(const std::vector<Graph> &graphs,
                                     const WorkloadSet &set,
                                     const DeploymentConfig &dep)
    : graphs_(graphs), set_(set), dep_(dep)
{
    if (graphs_.size() != set_.tenants.size())
        fatal("co-schedule: %zu graphs for %zu tenants", graphs_.size(),
              set_.tenants.size());
    if (dep_.cores() < 1)
        fatal("co-schedule: the deployment must be resolved "
              "(>= 1 core)");
    classOf_.resize(dep_.coreConfigs.size());
    for (size_t c = 0; c < dep_.coreConfigs.size(); ++c) {
        classOf_[c] = static_cast<int>(c);
        for (size_t j = 0; j < c; ++j)
            if (accelEqual(dep_.coreConfigs[j], dep_.coreConfigs[c])) {
                classOf_[c] = static_cast<int>(j);
                break;
            }
    }
    models_.resize(graphs_.size() * dep_.coreConfigs.size());
}

CostModel &
ScheduleCostModel::model(int tenant, int core)
{
    if (tenant < 0 || tenant >= tenants() || core < 0 || core >= cores())
        fatal("co-schedule: model(%d, %d) out of range (%d tenants, "
              "%d cores)",
              tenant, core, tenants(), cores());
    int rep = classOf_[core];
    auto &slot = models_[static_cast<size_t>(tenant) * cores() + rep];
    if (!slot)
        slot = std::make_unique<CostModel>(graphs_[tenant],
                                           dep_.coreConfigs[rep]);
    return *slot;
}

ScheduleCost
ScheduleCostModel::evaluate(const Schedule &s)
{
    const int T = tenants();
    if (static_cast<int>(s.coreOf.size()) != T ||
        static_cast<int>(s.parts.size()) != T)
        fatal("co-schedule: schedule shape (%zu cores, %zu parts) does "
              "not match %d tenants",
              s.coreOf.size(), s.parts.size(), T);
    ScheduleCost out;
    out.tenants.resize(T);
    out.coreUtilization.assign(cores(), 0.0);
    out.feasible = true;
    // Pass 1: uncontended per-tenant costs and core utilizations.
    for (int t = 0; t < T; ++t) {
        int core = s.coreOf[t];
        if (core < 0 || core >= cores())
            fatal("co-schedule: tenant %d placed on core %d of %d", t,
                  core, cores());
        TenantCost &tc = out.tenants[t];
        tc.graph = model(t, core).partitionCost(s.parts[t], s.buffer);
        tc.feasible = tc.graph.feasible;
        double clock = dep_.coreConfigs[core].clockGhz;
        tc.serviceMs = tc.graph.latencyMs(clock);
        tc.energyPj = tc.graph.energyPj;
        if (tc.feasible)
            out.coreUtilization[core] +=
                set_.tenants[t].arrivalRateHz * tc.serviceMs / 1000.0;
        else
            out.feasible = false;
    }
    // Pass 2: contention-scaled latencies and SLA verdicts.
    double latency_sum = 0.0;
    for (int t = 0; t < T; ++t) {
        TenantCost &tc = out.tenants[t];
        double util = out.coreUtilization[s.coreOf[t]];
        if (!tc.feasible || util >= kSaturationUtil) {
            tc.latencyMs = kSaturatedLatencyMs;
            tc.slaViolation = true;
        } else {
            tc.latencyMs = tc.serviceMs / (1.0 - util);
            tc.slaViolation =
                tc.latencyMs > set_.tenants[t].slaLatencyMs;
        }
        out.slaViolations += tc.slaViolation;
        latency_sum += tc.latencyMs;
        out.energyPjPerSec +=
            set_.tenants[t].arrivalRateHz * tc.energyPj;
    }
    out.meanLatencyMs = T > 0 ? latency_sum / T : 0.0;
    return out;
}

uint64_t
ScheduleCostModel::contextHash(uint64_t h) const
{
    h = hashU64(h, static_cast<uint64_t>(dep_.cores()));
    // Each tenant runs on one core: every per-core model is a plain
    // single-core CostModel.
    for (const AcceleratorConfig &core : dep_.coreConfigs)
        h = hashAccelerator(h, core, 1, resolveInterconnect({}, core));
    h = hashDouble(h, dep_.interconnect.bytesPerCycle);
    h = hashDouble(h, dep_.interconnect.pjPerByteHop);
    for (int t = 0; t < tenants(); ++t) {
        h = hashString(h, set_.tenants[t].name);
        h = hashGraph(h, graphs_[t]);
        h = hashDouble(h, set_.tenants[t].arrivalRateHz);
        h = hashDouble(h, set_.tenants[t].slaLatencyMs);
    }
    return h;
}

CoScheduler::CoScheduler(const std::vector<Graph> &graphs,
                         const WorkloadSet &set,
                         const DeploymentConfig &dep)
    : model_(graphs, set, dep)
{
}

ScheduleResult
CoScheduler::explore(const SearchSpec &spec)
{
    if (spec.algo == "greedy-place")
        return greedy(spec);
    return searched(spec);
}

ScheduleResult
CoScheduler::greedy(const SearchSpec &spec)
{
    const int T = model_.tenants();
    const int C = model_.cores();
    ScheduleResult res;
    res.schedule.coreOf.assign(T, 0);
    res.schedule.parts.resize(T);
    // Well-defined even when cancellation interrupts placement below.
    for (int t = 0; t < T; ++t)
        res.schedule.parts[t] = Partition::singletons(model_.graph(t));

    // Heaviest tenant first: compute demand rate (MACs/s) decides,
    // declaration order breaks ties.
    std::vector<int> order(T);
    for (int t = 0; t < T; ++t)
        order[t] = t;
    auto demand = [&](int t) {
        return static_cast<double>(model_.graph(t).totalMacs()) *
               model_.set().tenants[t].arrivalRateHz;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return demand(a) > demand(b); });

    // Fastest core first: peak throughput decides, index breaks ties.
    std::vector<int> core_order(C);
    for (int c = 0; c < C; ++c)
        core_order[c] = c;
    std::stable_sort(core_order.begin(), core_order.end(), [&](int a,
                                                               int b) {
        return coreThroughput(model_.deployment().coreConfigs[a]) >
               coreThroughput(model_.deployment().coreConfigs[b]);
    });

    // The first (heaviest) tenant's run fixes the shared buffer; the
    // rest search partitions only, under the frozen buffer. Inner
    // results are memoized per (tenant, core class).
    bool have_buffer = !spec.eval.coExplore;
    BufferConfig buffer = spec.fixedBuffer;
    std::vector<SearchResult> memo(
        static_cast<size_t>(T) * C); // by tenant * C + class
    std::vector<char> have(static_cast<size_t>(T) * C, 0);
    auto inner = [&](int t, int core) -> const SearchResult & {
        size_t slot = static_cast<size_t>(t) * C + model_.coreClass(core);
        if (!have[slot]) {
            DseSpace space =
                have_buffer ? DseSpace::fixedSpace(buffer)
                            : DseSpace::paperSpace(spec.style);
            memo[slot] = greedyPlaceSearch(model_.model(t, core), space,
                                           spec.eval);
            res.samples += memo[slot].samples;
            res.cacheStats += memo[slot].cacheStats;
            have[slot] = 1;
        }
        return memo[slot];
    };

    std::vector<double> util(C, 0.0);
    for (int t : order) {
        if (cancelled(spec)) {
            res.stop = StopReason::Cancelled;
            break;
        }
        double rate = model_.set().tenants[t].arrivalRateHz;
        int placed = -1;
        for (int c : core_order) {
            const SearchResult &r = inner(t, c);
            if (!r.bestGraphCost.feasible)
                continue;
            double load =
                rate *
                r.bestGraphCost.latencyMs(
                    model_.deployment().coreConfigs[c].clockGhz) /
                1000.0;
            // Contention-blind: only the hard capacity check — no
            // lookahead on how the added load inflates latencies.
            if (util[c] + load >= kSaturationUtil)
                continue;
            placed = c;
            util[c] += load;
            break;
        }
        if (placed < 0)
            placed = core_order.front(); // overloaded: eat the violation
        const SearchResult &r = inner(t, placed);
        res.schedule.coreOf[t] = placed;
        res.schedule.parts[t] = r.best.part;
        if (!have_buffer) {
            buffer = r.bestBuffer;
            have_buffer = true;
            // Later tenants must respect the frozen buffer: their
            // memoized entries (if any) were searched under it too,
            // since the first tenant is resolved first.
        }
    }
    res.schedule.buffer = buffer;
    res.cost = model_.evaluate(res.schedule);
    res.objective = scheduleObjective(res.cost);
    res.placements = 1;
    return res;
}

ScheduleResult
CoScheduler::searched(const SearchSpec &spec)
{
    const int T = model_.tenants();
    const int C = model_.cores();
    ScheduleResult res;

    // Distinct core classes, by representative index.
    std::vector<int> reps;
    for (int c = 0; c < C; ++c)
        if (model_.coreClass(c) == c)
            reps.push_back(c);

    // Stage 1: one inner search per (tenant, core class).
    DseSpace space = spec.eval.coExplore
                         ? DseSpace::paperSpace(spec.style)
                         : DseSpace::fixedSpace(spec.fixedBuffer);
    std::vector<std::vector<SearchResult>> found(
        T, std::vector<SearchResult>(reps.size()));
    for (int t = 0; t < T; ++t)
        for (size_t k = 0; k < reps.size(); ++k) {
            if (cancelled(spec)) {
                res.stop = StopReason::Cancelled;
                return res;
            }
            auto searcher = SearcherRegistry::instance().make(
                spec.algo, model_.model(t, reps[k]), space, spec);
            found[t][k] = searcher->run();
            res.samples += found[t][k].samples;
            res.cacheStats += found[t][k].cacheStats;
        }

    // Stage 2: candidate shared buffers = the distinct winners.
    std::vector<BufferConfig> buffers;
    for (int t = 0; t < T; ++t)
        for (size_t k = 0; k < reps.size(); ++k) {
            if (found[t][k].samples == 0)
                continue;
            const BufferConfig &b = found[t][k].bestBuffer;
            bool seen = false;
            for (const BufferConfig &have : buffers)
                seen = seen || sameBuffer(have, b);
            if (!seen)
                buffers.push_back(b);
        }
    if (buffers.empty())
        buffers.push_back(spec.fixedBuffer);

    // Stage 3: for each candidate buffer, re-fit every (tenant,
    // class) partition (a winner searched under another buffer gets
    // capacity-repaired), then search placements.
    for (const BufferConfig &buf : buffers) {
        std::vector<std::vector<Partition>> part(
            T, std::vector<Partition>(reps.size()));
        for (int t = 0; t < T; ++t)
            for (size_t k = 0; k < reps.size(); ++k) {
                const SearchResult &r = found[t][k];
                if (sameBuffer(r.bestBuffer, buf) || !spec.eval.inSituSplit)
                    part[t][k] = r.best.part;
                else
                    part[t][k] = repairToCapacity(
                        model_.graph(t), r.best.part,
                        model_.model(t, reps[k]), buf);
            }
        auto classIndex = [&](int core) {
            int rep = model_.coreClass(core);
            for (size_t k = 0; k < reps.size(); ++k)
                if (reps[k] == rep)
                    return k;
            return size_t{0}; // unreachable
        };
        auto score = [&](const std::vector<int> &core_of) {
            Schedule s;
            s.buffer = buf;
            s.coreOf = core_of;
            s.parts.resize(T);
            for (int t = 0; t < T; ++t)
                s.parts[t] = part[t][classIndex(core_of[t])];
            ScheduleCost cost = model_.evaluate(s);
            double obj = scheduleObjective(cost);
            ++res.placements;
            if (obj < res.objective) {
                res.objective = obj;
                res.schedule = std::move(s);
                res.cost = std::move(cost);
            }
            return obj;
        };

        int64_t combos = 1;
        for (int t = 0; t < T && combos <= kMaxEnumPlacements; ++t)
            combos *= C;
        if (combos <= kMaxEnumPlacements) {
            // Exhaustive: odometer over tenant -> core digits.
            std::vector<int> core_of(T, 0);
            for (;;) {
                score(core_of);
                int d = 0;
                while (d < T && ++core_of[d] == C)
                    core_of[d++] = 0;
                if (d == T)
                    break;
            }
        } else {
            // Hill climb from a deterministic spread placement.
            std::vector<int> core_of(T);
            for (int t = 0; t < T; ++t)
                core_of[t] = t % C;
            double cur = score(core_of);
            bool improved = true;
            while (improved && !cancelled(spec)) {
                improved = false;
                for (int t = 0; t < T; ++t) {
                    int best_c = core_of[t];
                    for (int c = 0; c < C; ++c) {
                        if (c == core_of[t])
                            continue;
                        std::vector<int> cand = core_of;
                        cand[t] = c;
                        double obj = score(cand);
                        if (obj < cur) {
                            cur = obj;
                            best_c = c;
                            improved = true;
                        }
                    }
                    core_of[t] = best_c;
                }
            }
        }
    }
    if (cancelled(spec))
        res.stop = StopReason::Cancelled;
    return res;
}

std::string
scheduleResultToJson(ScheduleCostModel &model, const ScheduleResult &r)
{
    const WorkloadSet &set = model.set();
    JsonWriter w;
    if (static_cast<int>(r.cost.tenants.size()) != model.tenants() ||
        static_cast<int>(r.schedule.coreOf.size()) != model.tenants()) {
        // A run cancelled before any placement was scored has no
        // schedule to report.
        w.beginObject();
        w.field("cancelled", true);
        w.field("objective", r.objective);
        w.field("samples", r.samples);
        w.field("placements", r.placements);
        w.endObject();
        return w.str();
    }
    w.beginObject();
    w.key("tenants").beginArray();
    for (int t = 0; t < model.tenants(); ++t) {
        const TenantSpec &spec = set.tenants[t];
        const TenantCost &tc = r.cost.tenants[t];
        w.beginObject();
        w.field("name", spec.name);
        w.field("model", model.graph(t).name());
        w.field("core", r.schedule.coreOf[t]);
        w.field("arrival_rate_hz", spec.arrivalRateHz);
        w.field("sla_latency_ms", spec.slaLatencyMs);
        w.field("feasible", tc.feasible);
        w.field("service_ms", tc.serviceMs);
        w.field("latency_ms", tc.latencyMs);
        w.field("energy_pj", tc.energyPj);
        w.field("sla_violation", tc.slaViolation);
        w.key("subgraphs").beginArray();
        for (const auto &blk : r.schedule.parts[t].blocks()) {
            w.beginArray();
            for (NodeId v : blk)
                w.value(model.graph(t).layer(v).name);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("buffer").beginObject();
    w.field("style", r.schedule.buffer.style == BufferStyle::Shared
                         ? "shared"
                         : "separate");
    w.field("act_bytes", r.schedule.buffer.actBytes);
    w.field("weight_bytes", r.schedule.buffer.weightBytes);
    w.field("shared_bytes", r.schedule.buffer.sharedBytes);
    w.field("total_bytes", r.schedule.buffer.totalBytes());
    w.endObject();
    w.key("cost").beginObject();
    w.field("feasible", r.cost.feasible);
    w.field("sla_violations", r.cost.slaViolations);
    w.field("mean_latency_ms", r.cost.meanLatencyMs);
    w.field("energy_pj_per_sec", r.cost.energyPjPerSec);
    w.key("core_utilization").beginArray();
    for (double u : r.cost.coreUtilization)
        w.value(u);
    w.endArray();
    w.endObject();
    w.field("objective", r.objective);
    w.field("samples", r.samples);
    w.field("placements", r.placements);
    w.endObject();
    return w.str();
}

void
fillTenantMetrics(const ScheduleCostModel &model, const ScheduleResult &r,
                  RunMetrics *m)
{
    const WorkloadSet &set = model.set();
    if (static_cast<int>(r.cost.tenants.size()) != set.size() ||
        static_cast<int>(r.schedule.coreOf.size()) != set.size())
        return;
    m->hasTenants = true;
    m->slaViolations = r.cost.slaViolations;
    m->meanLatencyMs = r.cost.meanLatencyMs;
    m->tenants.clear();
    for (int t = 0; t < set.size(); ++t) {
        RunMetrics::TenantMetrics tm;
        tm.name = set.tenants[t].name;
        tm.core = r.schedule.coreOf[t];
        tm.arrivalRateHz = set.tenants[t].arrivalRateHz;
        tm.slaLatencyMs = set.tenants[t].slaLatencyMs;
        tm.latencyMs = r.cost.tenants[t].latencyMs;
        tm.energyPj = r.cost.tenants[t].energyPj;
        tm.slaViolation = r.cost.tenants[t].slaViolation;
        m->tenants.push_back(std::move(tm));
    }
}

std::string
scheduleGantt(ScheduleCostModel &model, const ScheduleResult &r,
              int width)
{
    const WorkloadSet &set = model.set();
    if (static_cast<int>(r.cost.tenants.size()) != model.tenants() ||
        static_cast<int>(r.schedule.coreOf.size()) != model.tenants())
        return "(no schedule: the run was cancelled before any "
               "placement was scored)\n";
    std::string out = "schedule lanes (1 s horizon):\n";
    for (int c = 0; c < model.cores(); ++c) {
        out += ganttLane(strprintf(" c%-7d ", c),
                         r.cost.coreUtilization[c], width);
        for (int t = 0; t < model.tenants(); ++t) {
            if (r.schedule.coreOf[t] != c)
                continue;
            const TenantCost &tc = r.cost.tenants[t];
            double busy = tc.feasible ? set.tenants[t].arrivalRateHz *
                                            tc.serviceMs / 1000.0
                                      : 0.0;
            out += ganttLane(strprintf("   %-7.7s ",
                                       set.tenants[t].name.c_str()),
                             busy, width);
        }
    }
    for (int t = 0; t < model.tenants(); ++t) {
        const TenantCost &tc = r.cost.tenants[t];
        int core = r.schedule.coreOf[t];
        out += strprintf("tenant %s (%s on core %d): %.1f req/s, "
                         "service %.3f ms, latency %.3f ms, SLA %.3f ms "
                         "%s\n",
                         set.tenants[t].name.c_str(),
                         model.graph(t).name().c_str(), core,
                         set.tenants[t].arrivalRateHz, tc.serviceMs,
                         tc.latencyMs, set.tenants[t].slaLatencyMs,
                         tc.slaViolation ? "VIOLATED" : "ok");
        if (tc.feasible)
            out += buildTimeline(model.model(t, core),
                                 r.schedule.parts[t], r.schedule.buffer)
                       .gantt(width);
    }
    return out;
}

} // namespace cocco
