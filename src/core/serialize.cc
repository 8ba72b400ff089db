#include "core/serialize.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <list>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "graph/graph_json.h"
#include "util/hash.h"
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
    w.key("deployment");
    writeDeploymentJson(w, r.deployment);
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
constexpr int kCacheVersion = 2;

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

/**
 * Write-then-rename: @p write fills `path.tmp`, which replaces @p path
 * only once it is complete and closed, so a failed or interrupted save
 * never clobbers the previous file. The temporary is removed on
 * failure.
 */
template <typename WriteFn>
bool
writeFileAtomically(const std::string &path, WriteFn write)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    write(f);
    bool ok = !std::ferror(f);
    ok = std::fclose(f) == 0 && ok;
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

/** Fold one body line (without its newline) into the file checksum,
 *  as little-endian 8-byte lanes, the last one zero-padded. */
uint64_t
foldLine(uint64_t sum, std::string_view line)
{
    for (size_t i = 0; i < line.size(); i += 8) {
        unsigned char bytes[8] = {0};
        std::memcpy(bytes, line.data() + i,
                    std::min<size_t>(8, line.size() - i));
        uint64_t lane = 0;
        for (int b = 7; b >= 0; --b)
            lane = lane << 8 | bytes[b];
        sum = hashU64(sum, lane);
    }
    return sum;
}

/** Append " <v>", formatted by std::to_chars(v, fmt...). */
template <typename T, typename... Fmt>
void
appendField(std::string *line, T v, Fmt... fmt)
{
    char buf[32];
    std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v, fmt...);
    line->push_back(' ');
    line->append(buf, r.ptr);
}

/** An entry's body line (no newline): the v1 fields, the key ids,
 *  then the repaired ids, or "=" when they equal the key. */
void
formatEntry(const EvalCache::Entry &e, std::string *line)
{
    line->assign("E");
    appendField(line, e.hash, 16);
    appendField(line, e.salt, 16);
    appendField(line, e.actIdx);
    appendField(line, e.weightIdx);
    appendField(line, e.sharedIdx);
    appendField(line, e.numBlocks);
    appendField(line, e.cost, std::chars_format::hex);
    appendField(line, e.keyBlock.size());
    for (int b : e.keyBlock)
        appendField(line, b);
    if (e.repairedBlock.empty()) {
        line->append(" =");
    } else {
        for (int b : e.repairedBlock)
            appendField(line, b);
    }
}

/** The trailer (no newline) closing @p count body lines whose fold
 *  is @p sum. */
std::string
trailerLine(size_t count, uint64_t sum)
{
    std::string line = "END";
    appendField(&line, count);
    appendField(&line, hashFinalize(sum), 16);
    return line;
}

/** A file read line by line through one reused buffer. (std::FILE
 *  and POSIX getline, not an ifstream: the first iostream use in a
 *  process maps in about 1 MB of locale machinery.) */
class LineReader
{
  public:
    explicit LineReader(const std::string &path)
        : f_(std::fopen(path.c_str(), "r"))
    {
    }
    ~LineReader()
    {
        std::free(buf_);
        if (f_)
            std::fclose(f_);
    }
    LineReader(const LineReader &) = delete;
    LineReader &operator=(const LineReader &) = delete;

    bool isOpen() const { return f_ != nullptr; }
    bool failed() const { return std::ferror(f_) != 0; }

    /** The next line, its '\n' included (a cut last line lacks it).
     *  @return false at the end of the file or on a read error. */
    bool
    next(std::string_view *line)
    {
        ssize_t n = ::getline(&buf_, &cap_, f_);
        if (n < 0)
            return false;
        *line = std::string_view(buf_, static_cast<size_t>(n));
        return true;
    }

  private:
    std::FILE *f_;
    char *buf_ = nullptr;
    size_t cap_ = 0;
};

/** Cursor over the space-separated fields of one line. */
struct FieldReader
{
    const char *p;
    const char *end;

    /** Read " <v>" with std::from_chars(v, fmt...). */
    template <typename T, typename... Fmt>
    bool
    field(T *v, Fmt... fmt)
    {
        if (p == end || *p != ' ')
            return false;
        std::from_chars_result r = std::from_chars(p + 1, end, *v, fmt...);
        if (r.ec != std::errc())
            return false;
        p = r.ptr;
        return true;
    }

    /** Read " =", the repaired-equals-key marker. */
    bool
    marker()
    {
        if (end - p < 2 || p[0] != ' ' || p[1] != '=')
            return false;
        p += 2;
        return true;
    }
};

/** Read @p n block ids, each in [0, n). @return nullptr, or why not. */
const char *
readIds(FieldReader *r, size_t n, std::vector<int> *ids)
{
    ids->resize(n);
    for (int &b : *ids) {
        if (!r->field(&b))
            return "missing or malformed block id";
        if (b < 0 || static_cast<size_t>(b) >= n)
            return "block id out of range";
    }
    return nullptr;
}

/** Parse the fields of an entry line (after its "E") into @p e, each
 *  id list through the scratch @p ids. @return nullptr, or why not. */
const char *
parseEntry(FieldReader r, std::vector<int> *ids, EvalCache::Entry *e)
{
    size_t n = 0;
    if (!r.field(&e->hash, 16) || !r.field(&e->salt, 16) ||
        !r.field(&e->actIdx) || !r.field(&e->weightIdx) ||
        !r.field(&e->sharedIdx) || !r.field(&e->numBlocks) ||
        !r.field(&e->cost, std::chars_format::hex) || !r.field(&n))
        return "malformed entry fields";
    if (n > static_cast<size_t>(kMaxPersistedNodes))
        return "node count above the limit";
    if (const char *why = readIds(&r, n, ids))
        return why;
    e->keyBlock = *ids;
    if (!r.marker()) {
        if (const char *why = readIds(&r, n, ids))
            return why;
        e->repairedBlock = *ids;
    }
    return r.p == r.end ? nullptr : "trailing tokens";
}

/** @return "" when @p line is this build's header, else why not. */
std::string
headerError(std::string_view line)
{
    const size_t m = std::strlen(kCacheMagic);
    if (line.compare(0, m, kCacheMagic) != 0)
        return "not a cocco evaluation-cache file";
    FieldReader r{line.data() + m, line.data() + line.size()};
    int version = 0;
    if (!r.field(&version) || r.p != r.end)
        return "malformed header";
    if (version != kCacheVersion)
        return strprintf("unsupported cache format version %d (this "
                         "build reads %d)",
                         version, kCacheVersion);
    return "";
}

/** @return "" when @p line is exactly the trailer the writer emits
 *  after @p count entries folding to @p sum, else why not. */
std::string
trailerError(std::string_view line, size_t count, uint64_t sum)
{
    if (line == trailerLine(count, sum))
        return "";
    FieldReader r{line.data() + 3, line.data() + line.size()};
    size_t stated = 0;
    uint64_t checksum = 0;
    if (!r.field(&stated) || !r.field(&checksum, 16) || r.p != r.end)
        return "malformed END trailer";
    if (stated != count)
        return strprintf("entry count mismatch: END says %zu, the file "
                         "holds %zu",
                         stated, count);
    return "checksum mismatch";
}

} // namespace

bool
saveEvalCache(const EvalCache &cache, const std::string &path)
{
    return writeFileAtomically(path, [&](std::FILE *f) {
        std::fprintf(f, "%s %d\n", kCacheMagic, kCacheVersion);
        std::string line;
        uint64_t sum = kHashSeed;
        size_t count = 0;
        cache.forEachEntry([&](const EvalCache::Entry &e) {
            if (!e.repairedBlock.empty() &&
                e.keyBlock.size() != e.repairedBlock.size())
                return;
            formatEntry(e, &line);
            sum = foldLine(sum, line);
            line.push_back('\n');
            std::fwrite(line.data(), 1, line.size(), f);
            ++count;
        });
        std::fprintf(f, "%s\n", trailerLine(count, sum).c_str());
    });
}

// The load is one tight parse loop, and its speed followed the start
// address modulo 64 that unrelated code above it happened to give it
// (about 15% slower at 32 mod 64, on a 4-vCPU Xeon): a cache-line start
// keeps it independent of code elsewhere.
__attribute__((aligned(64))) int
loadEvalCache(EvalCache &cache, const std::string &path, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = path + ": " + why;
        return -1;
    };
    LineReader in(path);
    if (!in.isOpen())
        return fail("cannot read file");
    // Parse and check everything before touching the cache: a file
    // loads whole or not at all.
    std::list<EvalCache::Entry> staged;
    std::vector<int> ids;
    uint64_t sum = kHashSeed;
    bool ended = false;
    size_t lineNo = 0;
    std::string_view line;
    while (in.next(&line)) {
        ++lineNo;
        // The writer ends every line, the trailer's too, with '\n'.
        if (line.back() != '\n')
            return fail("truncated: last line has no newline");
        line.remove_suffix(1);
        if (ended)
            return fail("data after the END trailer");
        std::string why;
        if (lineNo == 1) {
            why = headerError(line);
        } else if (line.compare(0, 2, "E ") == 0) {
            sum = foldLine(sum, line);
            staged.emplace_back();
            FieldReader r{line.data() + 1, line.data() + line.size()};
            if (const char *bad = parseEntry(r, &ids, &staged.back()))
                why = strprintf("entry %zu: %s", staged.size(), bad);
        } else if (line.compare(0, 3, "END") == 0) {
            why = trailerError(line, staged.size(), sum);
            ended = true;
        } else {
            why = strprintf("line %zu: neither an entry nor the END trailer",
                            lineNo);
        }
        if (!why.empty())
            return fail(why);
    }
    if (in.failed())
        return fail("read error");
    if (lineNo == 0)
        return fail("empty file");
    if (!ended)
        return fail("truncated: no END trailer");
    // Hand the entries over one at a time: each freed staging node
    // makes room for the cache's own, so staging adds no peak memory.
    const int loaded = static_cast<int>(staged.size());
    for (; !staged.empty(); staged.pop_front())
        cache.insertEntry(std::move(staged.front()));
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
                     " %d %lld %lld %lld\n",
                     static_cast<long long>(c.tsCandidate), c.tsSubSeed,
                     c.tsBoundRejections, c.tsBoundSkippedSamples,
                     c.tsDelta.reports, c.tsDelta.nodesTouched,
                     c.tsDelta.hwOnly, c.tsDelta.rewrites,
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
                        " %d %lld %lld %lld",
                        &cand, &c.tsSubSeed, &c.tsBoundRejections,
                        &c.tsBoundSkippedSamples, &c.tsDelta.reports,
                        &c.tsDelta.nodesTouched, &c.tsDelta.hwOnly,
                        &c.tsDelta.rewrites, &style, &act, &wgt,
                        &shr) != 12 ||
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
    // A crash mid-write must never replace the previous good
    // checkpoint with a truncated one.
    return writeFileAtomically(path, [&](std::FILE *f) {
        std::fprintf(f, "%s %d\n", kCheckpointMagic,
                     SearchCheckpoint::kVersion);
        writeCheckpointBody(f, c);
        // Portfolio section: racer state + one nested body per racer
        // (one nesting level only — racer snapshots never carry a Q of
        // their own, matching the struct contract).
        size_t nracers =
            c.hasPortfolio ? std::min(c.racers.size(), c.racerState.size())
                           : 0;
        std::fprintf(f, "Q %zu\n", nracers);
        for (size_t i = 0; i < nracers; ++i) {
            std::fprintf(f, "q %d\n", c.racerState[i]);
            writeCheckpointBody(f, c.racers[i]);
        }
        std::fprintf(f, "END\n");
    });
}

bool
loadCheckpoint(const std::string &path, SearchCheckpoint *out,
               std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    auto fail = [&](const std::string &what) {
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
        return fail(strprintf("unsupported checkpoint format version %d "
                              "(this build reads %d)",
                              version, SearchCheckpoint::kVersion));

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
