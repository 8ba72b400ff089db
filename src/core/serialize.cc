#include "core/serialize.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "graph/graph_json.h"
#include "util/json.h"
#include "util/logging.h"

namespace cocco {

std::string
partitionToJson(const Graph &g, const Partition &p)
{
    JsonWriter w;
    w.beginObject();
    w.field("model", g.name());
    w.key("subgraphs").beginArray();
    for (const auto &blk : p.blocks()) {
        w.beginArray();
        for (NodeId v : blk)
            w.value(g.layer(v).name);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
schemeToJson(const Graph &g, const ExecutionScheme &s)
{
    JsonWriter w;
    w.beginObject();
    w.field("out_tile", s.outTile);
    w.field("act_footprint_bytes", s.actFootprintBytes);
    w.field("regions", s.numRegions);
    w.field("upd_consistent", s.updConsistent);
    w.key("nodes").beginArray();
    for (const NodeScheme &ns : s.nodes) {
        w.beginObject();
        w.field("name", g.layer(ns.node).name);
        w.field("external", ns.external);
        w.field("output", ns.is_output);
        w.field("delta_h", ns.deltaH);
        w.field("delta_w", ns.deltaW);
        w.field("x_h", ns.xH);
        w.field("x_w", ns.xW);
        w.field("upd_num", ns.updNum);
        w.field("main_bytes", ns.mainBytes);
        w.field("side_bytes", ns.sideBytes);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
resultToJson(const Graph &g, const CoccoResult &r)
{
    JsonWriter w;
    w.beginObject();
    w.field("model", g.name());
    w.key("buffer").beginObject();
    w.field("style", r.buffer.style == BufferStyle::Shared ? "shared"
                                                           : "separate");
    w.field("act_bytes", r.buffer.actBytes);
    w.field("weight_bytes", r.buffer.weightBytes);
    w.field("shared_bytes", r.buffer.sharedBytes);
    w.field("total_bytes", r.buffer.totalBytes());
    w.endObject();
    w.key("cost").beginObject();
    w.field("feasible", r.cost.feasible);
    w.field("subgraphs", r.cost.subgraphs);
    w.field("ema_bytes", r.cost.emaBytes);
    w.field("energy_pj", r.cost.energyPj);
    w.field("latency_cycles", r.cost.latencyCycles);
    w.field("avg_bw_gbps", r.cost.avgBwGBps);
    w.endObject();
    w.field("objective", r.objective);
    w.field("samples", r.samples);
    w.key("deployment").beginObject();
    w.field("cores", r.deployment.cores);
    w.field("crossbar_energy_pj", r.deployment.crossbarEnergyPj);
    w.field("crossbar_cycles", r.deployment.crossbarCycles);
    w.field("crossbar_energy_share", r.deployment.crossbarEnergyShare);
    w.field("crossbar_latency_share", r.deployment.crossbarLatencyShare);
    w.key("core_utilization").beginArray();
    for (double u : r.deployment.coreUtilization)
        w.value(u);
    w.endArray();
    w.endObject();
    w.key("subgraphs").beginArray();
    for (const auto &blk : r.partition.blocks()) {
        w.beginArray();
        for (NodeId v : blk)
            w.value(g.layer(v).name);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

namespace {

constexpr const char *kCacheMagic = "COCCO-EVALCACHE";
constexpr int kCacheVersion = 1;

/** Guard against absurd vector lengths from corrupt files. */
constexpr int kMaxPersistedNodes = 1 << 22;

/**
 * Read one block id of an @p n-node assignment. Ids outside [0, n)
 * never come from a partition of n nodes; accepting one would index
 * block lists out of bounds (negative) or size id-indexed tables by it.
 */
bool
readBlockId(std::FILE *f, size_t n, int *id)
{
    return std::fscanf(f, "%d", id) == 1 && *id >= 0 &&
           static_cast<size_t>(*id) < n;
}

} // namespace

bool
saveEvalCache(const EvalCache &cache, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%s %d\n", kCacheMagic, kCacheVersion);
    bool ok = true;
    cache.forEachEntry([&](const EvalCache::Entry &e) {
        if (!ok || e.keyBlock.size() != e.repairedBlock.size())
            return;
        // E hash salt act wgt shr numBlocks cost n key... repaired...
        std::fprintf(f, "E %" PRIx64 " %" PRIx64 " %d %d %d %d %a %zu",
                     e.hash, e.salt, e.actIdx, e.weightIdx, e.sharedIdx,
                     e.numBlocks, e.cost, e.keyBlock.size());
        for (int b : e.keyBlock)
            std::fprintf(f, " %d", b);
        for (int b : e.repairedBlock)
            std::fprintf(f, " %d", b);
        if (std::fputc('\n', f) == EOF)
            ok = false;
    });
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

int
loadEvalCache(EvalCache &cache, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return -1;
    char magic[32] = {0};
    int version = 0;
    if (std::fscanf(f, "%31s %d", magic, &version) != 2 ||
        std::string(magic) != kCacheMagic || version != kCacheVersion) {
        std::fclose(f);
        return -1;
    }
    int loaded = 0;
    char tag[4];
    while (std::fscanf(f, "%3s", tag) == 1 && tag[0] == 'E' && !tag[1]) {
        EvalCache::Entry e;
        size_t n = 0;
        if (std::fscanf(f, "%" SCNx64 " %" SCNx64 " %d %d %d %d %la %zu",
                        &e.hash, &e.salt, &e.actIdx, &e.weightIdx,
                        &e.sharedIdx, &e.numBlocks, &e.cost, &n) != 8 ||
            n > static_cast<size_t>(kMaxPersistedNodes))
            break;
        e.keyBlock.resize(n);
        e.repairedBlock.resize(n);
        bool ok = true;
        for (size_t i = 0; ok && i < n; ++i)
            ok = readBlockId(f, n, &e.keyBlock[i]);
        for (size_t i = 0; ok && i < n; ++i)
            ok = readBlockId(f, n, &e.repairedBlock[i]);
        if (!ok)
            break;
        cache.insertEntry(std::move(e));
        ++loaded;
    }
    std::fclose(f);
    return loaded;
}

// --- Search checkpoints --------------------------------------------------

namespace {

constexpr const char *kCheckpointMagic = "COCCO-CHECKPOINT";

/** Sanity ceiling for persisted trace/points/population lengths. */
constexpr int64_t kMaxPersistedSamples = 1LL << 26;

void
writeGenome(std::FILE *f, const Genome &g)
{
    std::fprintf(f, "%d %d %d %d %zu", g.actIdx, g.weightIdx, g.sharedIdx,
                 g.part.numBlocks, g.part.block.size());
    for (int b : g.part.block)
        std::fprintf(f, " %d", b);
}

bool
readGenome(std::FILE *f, Genome *g)
{
    size_t n = 0;
    if (std::fscanf(f, "%d %d %d %d %zu", &g->actIdx, &g->weightIdx,
                    &g->sharedIdx, &g->part.numBlocks, &n) != 5 ||
        n > static_cast<size_t>(kMaxPersistedNodes))
        return false;
    g->part.block.resize(n);
    for (size_t i = 0; i < n; ++i)
        if (!readBlockId(f, n, &g->part.block[i]))
            return false;
    return true;
}

bool
readTag(std::FILE *f, const char *want)
{
    char tag[4] = {0};
    return std::fscanf(f, "%3s", tag) == 1 &&
           std::string(tag) == std::string(want);
}

/** Serialize one driver's state (the A..W sections). Shared between
 *  the top-level snapshot and the portfolio's nested racer
 *  snapshots, which use the identical encoding (nesting is one level
 *  deep: racer bodies never carry a Q section of their own). */
void
writeCheckpointBody(std::FILE *f, const SearchCheckpoint &c)
{
    std::fprintf(f, "A %s %" PRIx64 " %" PRIx64 "\n", c.algo.c_str(),
                 c.fence, c.seed);
    std::fprintf(f, "S %lld %a %lld %" PRIx64 "\n",
                 static_cast<long long>(c.samples), c.bestCost,
                 static_cast<long long>(c.sinceImprove), c.streamCounter);
    std::fprintf(f, "R %" PRIx64 " %" PRIx64 " %" PRIx64 " %" PRIx64 "\n",
                 c.rng[0], c.rng[1], c.rng[2], c.rng[3]);
    std::fprintf(f, "B ");
    writeGenome(f, c.best);
    std::fputc('\n', f);
    std::fprintf(f, "T %zu\n", c.trace.size());
    for (const TracePoint &tp : c.trace)
        std::fprintf(f, "t %lld %a\n", static_cast<long long>(tp.sample),
                     tp.bestCost);
    std::fprintf(f, "P %zu\n", c.points.size());
    for (const SamplePoint &sp : c.points)
        std::fprintf(f, "p %lld %a %lld\n",
                     static_cast<long long>(sp.sample), sp.metric,
                     static_cast<long long>(sp.bufferBytes));
    size_t npop = std::min(c.population.size(), c.popCosts.size());
    std::fprintf(f, "G %zu\n", npop);
    for (size_t i = 0; i < npop; ++i) {
        std::fprintf(f, "g %a ", c.popCosts[i]);
        writeGenome(f, c.population[i]);
        std::fputc('\n', f);
    }
    if (c.hasSa) {
        std::fprintf(f, "V 1 %a %a ", c.saCurCost, c.saT0);
        writeGenome(f, c.saCur);
        std::fputc('\n', f);
    } else {
        std::fprintf(f, "V 0\n");
    }
    if (c.hasTs) {
        std::fprintf(f,
                     "W 1 %lld %" PRIx64 " %" PRIu64 " %" PRIu64
                     " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                     " %" PRIu64 " %" PRIu64 " %d %lld %lld %lld\n",
                     static_cast<long long>(c.tsCandidate), c.tsSubSeed,
                     c.tsBoundRejections, c.tsBoundSkippedSamples,
                     c.tsIncReused, c.tsIncRecost, c.tsDelta.reports,
                     c.tsDelta.nodesTouched, c.tsDelta.hwOnly,
                     c.tsDelta.rewrites,
                     static_cast<int>(c.tsBestBuffer.style),
                     static_cast<long long>(c.tsBestBuffer.actBytes),
                     static_cast<long long>(c.tsBestBuffer.weightBytes),
                     static_cast<long long>(c.tsBestBuffer.sharedBytes));
    } else {
        std::fprintf(f, "W 0\n");
    }
}

/** Parse one driver's state (the A..W sections) into @p out. Returns
 *  nullptr on success, else a static failure reason. */
const char *
readCheckpointBody(std::FILE *f, SearchCheckpoint *out)
{
    SearchCheckpoint &c = *out;
    char algo[32] = {0};
    long long samples = 0, since = 0;
    if (!readTag(f, "A") ||
        std::fscanf(f, "%31s %" SCNx64 " %" SCNx64, algo, &c.fence,
                    &c.seed) != 3)
        return "corrupt header";
    c.algo = algo;
    if (!readTag(f, "S") ||
        std::fscanf(f, "%lld %la %lld %" SCNx64, &samples, &c.bestCost,
                    &since, &c.streamCounter) != 4 ||
        samples < 0 || samples > kMaxPersistedSamples)
        return "corrupt run state";
    c.samples = samples;
    c.sinceImprove = since;
    if (!readTag(f, "R") ||
        std::fscanf(f, "%" SCNx64 " %" SCNx64 " %" SCNx64 " %" SCNx64,
                    &c.rng[0], &c.rng[1], &c.rng[2], &c.rng[3]) != 4)
        return "corrupt RNG state";
    if (!readTag(f, "B") || !readGenome(f, &c.best))
        return "corrupt incumbent genome";

    size_t count = 0;
    if (!readTag(f, "T") || std::fscanf(f, "%zu", &count) != 1 ||
        count > static_cast<size_t>(kMaxPersistedSamples))
        return "corrupt trace header";
    c.trace.resize(count);
    for (TracePoint &tp : c.trace) {
        if (!readTag(f, "t") ||
            std::fscanf(f, "%lld %la", &samples, &tp.bestCost) != 2)
            return "corrupt trace entry";
        tp.sample = samples;
    }
    if (!readTag(f, "P") || std::fscanf(f, "%zu", &count) != 1 ||
        count > static_cast<size_t>(kMaxPersistedSamples))
        return "corrupt points header";
    c.points.resize(count);
    for (SamplePoint &sp : c.points) {
        long long bytes = 0;
        if (!readTag(f, "p") ||
            std::fscanf(f, "%lld %la %lld", &samples, &sp.metric,
                        &bytes) != 3)
            return "corrupt points entry";
        sp.sample = samples;
        sp.bufferBytes = bytes;
    }
    if (!readTag(f, "G") || std::fscanf(f, "%zu", &count) != 1 ||
        count > static_cast<size_t>(1 << 20))
        return "corrupt population header";
    c.population.resize(count);
    c.popCosts.resize(count);
    for (size_t i = 0; i < count; ++i) {
        if (!readTag(f, "g") ||
            std::fscanf(f, "%la", &c.popCosts[i]) != 1 ||
            !readGenome(f, &c.population[i]))
            return "corrupt population entry";
    }

    int flag = 0;
    if (!readTag(f, "V") || std::fscanf(f, "%d", &flag) != 1)
        return "corrupt SA section";
    if (flag) {
        c.hasSa = true;
        if (std::fscanf(f, "%la %la", &c.saCurCost, &c.saT0) != 2 ||
            !readGenome(f, &c.saCur))
            return "corrupt SA section";
    }
    if (!readTag(f, "W") || std::fscanf(f, "%d", &flag) != 1)
        return "corrupt two-step section";
    if (flag) {
        c.hasTs = true;
        long long cand = 0, act = 0, wgt = 0, shr = 0;
        int style = 0;
        if (std::fscanf(f,
                        "%lld %" SCNx64 " %" SCNu64 " %" SCNu64
                        " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                        " %" SCNu64 " %" SCNu64 " %d %lld %lld %lld",
                        &cand, &c.tsSubSeed, &c.tsBoundRejections,
                        &c.tsBoundSkippedSamples, &c.tsIncReused,
                        &c.tsIncRecost, &c.tsDelta.reports,
                        &c.tsDelta.nodesTouched, &c.tsDelta.hwOnly,
                        &c.tsDelta.rewrites, &style, &act, &wgt,
                        &shr) != 14 ||
            cand < 0 || (style != 0 && style != 1))
            return "corrupt two-step section";
        c.tsCandidate = cand;
        c.tsBestBuffer.style = static_cast<BufferStyle>(style);
        c.tsBestBuffer.actBytes = act;
        c.tsBestBuffer.weightBytes = wgt;
        c.tsBestBuffer.sharedBytes = shr;
    }
    return nullptr;
}

/** Racer-count ceiling in a persisted portfolio checkpoint. The
 *  registry holds a handful of algorithms; anything beyond this is a
 *  corrupt or hostile file, not a real race. */
constexpr size_t kMaxPersistedRacers = 64;

} // namespace

bool
saveCheckpoint(const SearchCheckpoint &c, const std::string &path)
{
    // Write-then-rename: a crash mid-write must never replace the
    // previous good checkpoint with a truncated one.
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%s %d\n", kCheckpointMagic,
                 SearchCheckpoint::kVersion);
    writeCheckpointBody(f, c);
    // Portfolio section: racer state + one nested body per racer (one
    // nesting level only — racer snapshots never carry a Q of their
    // own, matching the struct contract).
    size_t nracers =
        c.hasPortfolio ? std::min(c.racers.size(), c.racerState.size())
                       : 0;
    std::fprintf(f, "Q %zu\n", nracers);
    for (size_t i = 0; i < nracers; ++i) {
        std::fprintf(f, "q %d\n", c.racerState[i]);
        writeCheckpointBody(f, c.racers[i]);
    }
    std::fprintf(f, "END\n");
    bool ok = std::fclose(f) == 0;
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

bool
loadCheckpoint(const std::string &path, SearchCheckpoint *out,
               std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    auto fail = [&](const char *what) {
        if (err)
            *err = path + ": " + what;
        if (f)
            std::fclose(f);
        return false;
    };
    if (!f)
        return fail("cannot open checkpoint file");
    char magic[32] = {0};
    int version = 0;
    if (std::fscanf(f, "%31s %d", magic, &version) != 2 ||
        std::string(magic) != kCheckpointMagic)
        return fail("not a cocco checkpoint file");
    if (version != SearchCheckpoint::kVersion)
        return fail("unsupported checkpoint format version");

    SearchCheckpoint c;
    if (const char *why = readCheckpointBody(f, &c))
        return fail(why);
    size_t nracers = 0;
    if (!readTag(f, "Q") || std::fscanf(f, "%zu", &nracers) != 1 ||
        nracers > kMaxPersistedRacers)
        return fail("corrupt portfolio header");
    if (nracers > 0) {
        c.hasPortfolio = true;
        c.racers.resize(nracers);
        c.racerState.resize(nracers);
        for (size_t i = 0; i < nracers; ++i) {
            int state = 0;
            if (!readTag(f, "q") || std::fscanf(f, "%d", &state) != 1 ||
                state < SearchCheckpoint::kRacerActive ||
                state > SearchCheckpoint::kRacerFinished)
                return fail("corrupt racer state");
            c.racerState[i] = state;
            if (const char *why = readCheckpointBody(f, &c.racers[i]))
                return fail(why);
        }
    }
    if (!readTag(f, "END"))
        return fail("truncated checkpoint file");
    std::fclose(f);
    *out = std::move(c);
    return true;
}

// --- Workload & platform resolution -------------------------------------

bool
resolveWorkload(const WorkloadSpec &spec, Graph *out, std::string *err)
{
    if (!spec.model.empty() && !spec.file.empty())
        return jsonFail(err, "workload: give a model name or a graph "
                                "file, not both");
    if (!spec.file.empty()) {
        // A file fixes the graph's shape; accepting shape params here
        // would silently run a different experiment than requested.
        const ModelParams def;
        const ModelParams &p = spec.params;
        if (p.resolution != def.resolution || p.seqLen != def.seqLen ||
            p.depth != def.depth || p.widthMult != def.widthMult ||
            p.seed != def.seed)
            return jsonFail(err,
                            "workload: model-shaping params (resolution, "
                            "seqLen, depth, widthMult, seed) do not apply "
                            "to a \"file\" workload — only \"batch\" "
                            "does");
        return loadGraphJson(spec.file, out, err);
    }
    if (spec.model.empty())
        return jsonFail(err, "workload: a model name or a graph file "
                                "is required");
    if (!ModelRegistry::instance().contains(spec.model))
        return jsonFail(
            err, strprintf("unknown model \"%s\" (known: %s)",
                           spec.model.c_str(),
                           joinComma(allModelNames()).c_str()));
    *out = buildModel(spec.model, spec.params);
    return true;
}

bool
resolvePlatform(const PlatformSpec &spec, AcceleratorConfig *out,
                std::string *err)
{
    int sources = (!spec.preset.empty() ? 1 : 0) +
                  (!spec.file.empty() ? 1 : 0) +
                  (spec.inlineConfig ? 1 : 0);
    if (sources > 1)
        return jsonFail(err, "platform: give a preset, a file, or an "
                                "inline configuration, not several");
    if (!spec.file.empty())
        return loadPlatformJson(spec.file, out, err);
    if (spec.inlineConfig) {
        *out = spec.config;
        return true;
    }
    std::string name = spec.preset.empty() ? "simba" : spec.preset;
    if (!PlatformRegistry::instance().find(name, out))
        return jsonFail(
            err, strprintf(
                     "unknown platform \"%s\" (known: %s)", name.c_str(),
                     joinComma(PlatformRegistry::instance().keys())
                         .c_str()));
    return true;
}

bool
resolveDeployment(const DeploymentSpec &spec, const AcceleratorConfig &base,
                  DeploymentConfig *out, std::string *err)
{
    if (!spec.enabled) {
        *out = homogeneousDeployment(base, 1);
        return true;
    }
    int sources = (!spec.preset.empty() ? 1 : 0) +
                  (!spec.file.empty() ? 1 : 0) + (spec.inlineDesc ? 1 : 0);
    if (sources > 1)
        return jsonFail(err, "deployment: give a preset, a file, or an "
                             "inline description, not several");

    DeploymentDesc desc;
    if (!spec.preset.empty()) {
        if (!DeploymentRegistry::instance().find(spec.preset, &desc))
            return jsonFail(
                err,
                strprintf("unknown deployment \"%s\" (known: %s)",
                          spec.preset.c_str(),
                          joinComma(DeploymentRegistry::instance().keys())
                              .c_str()));
    } else if (!spec.file.empty()) {
        if (!loadDeploymentJson(spec.file, &desc, err))
            return false;
    } else {
        desc = spec.desc; // inline (or the defaults: one core)
    }

    if (desc.cores < 1)
        return jsonFail(err, "deployment: cores must be >= 1");
    if (!desc.corePlatforms.empty() &&
        static_cast<int>(desc.corePlatforms.size()) != desc.cores)
        return jsonFail(
            err, strprintf("deployment: corePlatforms has %zu entries "
                           "for %d cores",
                           desc.corePlatforms.size(), desc.cores));

    DeploymentConfig dep;
    dep.coreConfigs.reserve(static_cast<size_t>(desc.cores));
    for (int i = 0; i < desc.cores; ++i) {
        AcceleratorConfig core;
        if (desc.corePlatforms.empty()) {
            core = base;
        } else {
            std::string sub;
            if (!resolvePlatform(desc.corePlatforms[i], &core, &sub))
                return jsonFail(err,
                                strprintf("deployment: core %d: %s", i,
                                          sub.c_str()));
        }
        // The deployment owns the scale-out: a core that is itself
        // multi-core would nest two crossbars the model cannot see.
        if (core.cores != 1)
            return jsonFail(
                err, strprintf("deployment: core %d's platform is "
                               "already multi-core (cores = %d); "
                               "deployments are built from single-core "
                               "platforms",
                               i, core.cores));
        dep.coreConfigs.push_back(core);
    }
    for (size_t i = 1; i < dep.coreConfigs.size(); ++i)
        if (dep.coreConfigs[i].batch != dep.coreConfigs[0].batch)
            return jsonFail(
                err, strprintf("deployment: core %zu's batch (%d) "
                               "disagrees with core 0's (%d); a batch "
                               "is a property of the run",
                               i, dep.coreConfigs[i].batch,
                               dep.coreConfigs[0].batch));
    // Unset interconnect knobs inherit core 0's built-in crossbar
    // parameters (including a platform file's customized values).
    dep.interconnect =
        resolveInterconnect(desc.interconnect, dep.coreConfigs[0]);
    *out = dep;
    return true;
}

bool
saveDeploymentJson(const DeploymentDesc &desc, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << deploymentToJson(desc) << '\n';
    return static_cast<bool>(out);
}

bool
loadDeploymentJson(const std::string &path, DeploymentDesc *out,
                   std::string *err)
{
    JsonValue doc;
    if (!loadJsonFile(path, &doc, err))
        return false;
    std::string sub;
    if (!deploymentFromJson(doc, out, &sub))
        return jsonFail(err, path + ": " + sub);
    return true;
}

bool
savePlatformJson(const AcceleratorConfig &accel, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << acceleratorToJson(accel) << '\n';
    return static_cast<bool>(out);
}

bool
loadPlatformJson(const std::string &path, AcceleratorConfig *out,
                 std::string *err)
{
    JsonValue doc;
    if (!loadJsonFile(path, &doc, err))
        return false;
    std::string sub;
    if (!acceleratorFromJson(doc, out, &sub))
        return jsonFail(err, path + ": " + sub);
    return true;
}

} // namespace cocco
