#include "core/serialize.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
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
constexpr int kCacheVersion = 3;

/** Guard against absurd vector lengths from corrupt files. */
constexpr int kMaxPersistedNodes = 1 << 22;

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
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
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

// Cache-file records (serialize.h): a tag byte, then little-endian
// fields. An entry's fixed part is followed by its two id lists.
constexpr unsigned char kEntryTag = 'E';
constexpr unsigned char kTrailerTag = 'T';
/** Tag, hash, salt, the three gene indices, numBlocks, the cost's
 *  bits, n, the key's id width and the repaired ids' width. */
constexpr size_t kEntryFixedBytes = 1 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 4 + 1 + 1;
/** Tag, entry count, checksum. */
constexpr size_t kTrailerBytes = 1 + 8 + 8;

/** The W bytes at @p p as a little-endian integer, assembled in
 *  halves: a form g++ reads with one load (a byte loop is not). */
template <size_t W>
uint64_t
getLe(const unsigned char *p)
{
    if constexpr (W == 1)
        return p[0];
    else
        return getLe<W / 2>(p) | getLe<W / 2>(p + W / 2) << 4 * W;
}

/** Reads a record's little-endian fields in order. */
struct FieldCursor
{
    const unsigned char *p;

    template <size_t W>
    uint64_t
    take()
    {
        p += W;
        return getLe<W>(p - W);
    }

    /** A 4-byte two's-complement int. */
    int takeInt() { return static_cast<int32_t>(take<4>()); }
};

/** Append the low @p width bytes of @p v, least significant first. */
void
putLe(std::vector<unsigned char> *rec, uint64_t v, size_t width)
{
    for (size_t b = 0; b < width; ++b)
        rec->push_back(static_cast<unsigned char>(v >> 8 * b));
}

/** Fold one record into the file checksum, as little-endian 8-byte
 *  lanes, the last one zero-padded. */
uint64_t
foldRecord(uint64_t sum, const std::vector<unsigned char> &rec)
{
    const size_t n = rec.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        sum = hashU64(sum, getLe<8>(rec.data() + i));
    if (i < n) {
        unsigned char last[8] = {0};
        std::memcpy(last, rec.data() + i, n - i);
        sum = hashU64(sum, getLe<8>(last));
    }
    return sum;
}

/** An entry's record: its fixed part, the key ids, then the repaired
 *  ids unless they equal the key (width 0), each at its packed width. */
void
formatEntry(const EvalCache::Entry &e, std::vector<unsigned char> *rec)
{
    uint64_t costBits = 0;
    std::memcpy(&costBits, &e.cost, sizeof costBits);
    rec->assign(1, kEntryTag);
    putLe(rec, e.hash, 8);
    putLe(rec, e.salt, 8);
    for (int v : {e.actIdx, e.weightIdx, e.sharedIdx, e.numBlocks})
        putLe(rec, static_cast<uint32_t>(v), 4);
    putLe(rec, costBits, 8);
    putLe(rec, e.keyBlock.size(), 4);
    rec->push_back(static_cast<unsigned char>(e.keyBlock.width()));
    rec->push_back(static_cast<unsigned char>(
        e.repairedBlock.empty() ? 0 : e.repairedBlock.width()));
    for (const PackedIds *ids : {&e.keyBlock, &e.repairedBlock})
        for (int id : *ids)
            putLe(rec, static_cast<uint32_t>(id), ids->width());
}

/** The @p n ids of W bytes at @p p, into @p out. @return the largest,
 *  read unsigned (so a negative id reads as out of range). */
template <size_t W>
uint32_t
decodeIds(const unsigned char *p, size_t n, int *out)
{
    uint32_t hi = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint32_t v = static_cast<uint32_t>(getLe<W>(p + i * W));
        out[i] = static_cast<int>(v);
        hi = v > hi ? v : hi;
    }
    return hi;
}

/** Decode an id list of @p n ids at @p width bytes each into @p ids.
 *  @return nullptr, or why it is not a list the writer emits. */
const char *
decodeIdList(const unsigned char *p, size_t n, size_t width,
             std::vector<int> *ids)
{
    ids->resize(n);
    const uint32_t hi = width == 1   ? decodeIds<1>(p, n, ids->data())
                        : width == 2 ? decodeIds<2>(p, n, ids->data())
                                     : decodeIds<4>(p, n, ids->data());
    if (n > 0 && hi >= n)
        return "block id out of range";
    if (width != (hi > 0xffff ? 4 : hi > 0xff ? 2 : 1)) // PackedIds' rule
        return "id width wider than the ids need";
    return nullptr;
}

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
};

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

/** A cache file read record by record into one reused buffer.
 *  (std::FILE, not an ifstream: the first iostream use in a process
 *  maps in about 1 MB of locale machinery.) */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &path)
        : f_(std::fopen(path.c_str(), "rb"))
    {
    }
    ~RecordReader()
    {
        if (f_)
            std::fclose(f_);
    }
    RecordReader(const RecordReader &) = delete;
    RecordReader &operator=(const RecordReader &) = delete;

    bool isOpen() const { return f_ != nullptr; }

    /** Read the text header line. @return "" when it is this build's,
     *  else why not. */
    std::string
    header()
    {
        char buf[64];
        if (!std::fgets(buf, sizeof buf, f_))
            return std::ferror(f_) ? "read error" : "empty file";
        std::string_view line(buf);
        if (!line.empty() && line.back() == '\n') {
            line.remove_suffix(1);
            return headerError(line);
        }
        if (std::feof(f_))
            return "truncated: header has no newline";
        const std::string why = headerError(line);
        return why.empty() ? "malformed header" : why;
    }

    /** Start the next record. @return its tag, or EOF at the end of
     *  the file (or on a read error). */
    int
    next()
    {
        rec_.clear();
        return more(1) ? rec_[0] : EOF;
    }

    /** Append the record's next @p n bytes. @return false when the
     *  file ends (or fails) first. */
    bool
    more(size_t n)
    {
        const size_t at = rec_.size();
        rec_.resize(at + n);
        return std::fread(rec_.data() + at, 1, n, f_) == n;
    }

    /** Why the last next() or more() came up short. */
    std::string
    shortRead(const std::string &what) const
    {
        return std::ferror(f_) ? "read error" : "truncated: " + what;
    }

    const std::vector<unsigned char> &record() const { return rec_; }

  private:
    std::FILE *f_;
    std::vector<unsigned char> rec_;
};

/** Read the rest of entry record @p index (from 1), which @p in has
 *  started, into @p e, each id list through the scratch @p ids.
 *  @return "", or why not. */
std::string
readEntry(RecordReader &in, size_t index, std::vector<int> *ids,
          EvalCache::Entry *e)
{
    auto bad = [&](const char *why) {
        return strprintf("entry %zu: %s", index, why);
    };
    auto cut = [&] {
        return in.shortRead(strprintf("entry %zu cut short", index));
    };
    if (!in.more(kEntryFixedBytes - 1))
        return cut();
    FieldCursor c{in.record().data() + 1};
    e->hash = c.take<8>();
    e->salt = c.take<8>();
    e->actIdx = c.takeInt();
    e->weightIdx = c.takeInt();
    e->sharedIdx = c.takeInt();
    e->numBlocks = c.takeInt();
    const uint64_t costBits = c.take<8>();
    std::memcpy(&e->cost, &costBits, sizeof e->cost);
    const size_t n = c.take<4>();
    const size_t keyWidth = c.take<1>(), repairedWidth = c.take<1>();
    if (n > static_cast<size_t>(kMaxPersistedNodes))
        return bad("node count above the limit");
    auto valid = [](size_t w) { return w == 1 || w == 2 || w == 4; };
    if (!valid(keyWidth) || (repairedWidth != 0 && !valid(repairedWidth)))
        return bad("id width not 1, 2 or 4");
    if (!in.more(n * (keyWidth + repairedWidth)))
        return cut();
    const unsigned char *p = in.record().data() + kEntryFixedBytes;
    if (const char *why = decodeIdList(p, n, keyWidth, ids))
        return bad(why);
    e->keyBlock = *ids;
    if (repairedWidth != 0) {
        if (const char *why =
                decodeIdList(p + n * keyWidth, n, repairedWidth, ids))
            return bad(why);
        e->repairedBlock = *ids;
    }
    return "";
}

} // namespace

bool
saveEvalCache(const EvalCache &cache, const std::string &path)
{
    return writeFileAtomically(path, [&](std::FILE *f) {
        std::fprintf(f, "%s %d\n", kCacheMagic, kCacheVersion);
        std::vector<unsigned char> rec;
        uint64_t sum = kHashSeed;
        size_t count = 0;
        cache.forEachEntry([&](const EvalCache::Entry &e) {
            if (!e.repairedBlock.empty() &&
                e.keyBlock.size() != e.repairedBlock.size())
                return;
            formatEntry(e, &rec);
            sum = foldRecord(sum, rec);
            std::fwrite(rec.data(), 1, rec.size(), f);
            ++count;
        });
        rec.assign(1, kTrailerTag);
        putLe(&rec, count, 8);
        putLe(&rec, hashFinalize(sum), 8);
        std::fwrite(rec.data(), 1, rec.size(), f);
    });
}

int
loadEvalCache(EvalCache &cache, const std::string &path, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = path + ": " + why;
        return -1;
    };
    RecordReader in(path);
    if (!in.isOpen())
        return fail("cannot read file");
    if (std::string why = in.header(); !why.empty())
        return fail(why);
    // Read and check everything before touching the cache: a file
    // loads whole or not at all.
    std::list<EvalCache::Entry> staged;
    std::vector<int> ids;
    uint64_t sum = kHashSeed;
    for (;;) {
        const int tag = in.next();
        if (tag == EOF)
            return fail(in.shortRead("no trailer"));
        if (tag == kTrailerTag)
            break;
        if (tag != kEntryTag)
            return fail(strprintf("record %zu: neither an entry nor the "
                                  "trailer",
                                  staged.size() + 1));
        staged.emplace_back();
        if (std::string why = readEntry(in, staged.size(), &ids,
                                        &staged.back());
            !why.empty())
            return fail(why);
        sum = foldRecord(sum, in.record());
    }
    if (!in.more(kTrailerBytes - 1))
        return fail(in.shortRead("trailer cut short"));
    FieldCursor c{in.record().data() + 1};
    const size_t stated = c.take<8>();
    if (stated != staged.size())
        return fail(strprintf("entry count mismatch: the trailer says %zu, "
                              "the file holds %zu",
                              stated, staged.size()));
    if (c.take<8>() != hashFinalize(sum))
        return fail("checksum mismatch");
    if (in.next() != EOF)
        return fail("data after the trailer");
    // Hand the entries over one at a time: each freed staging node
    // makes room for the cache's own, so staging adds no peak memory.
    const int loaded = static_cast<int>(staged.size());
    for (; !staged.empty(); staged.pop_front())
        cache.insertEntry(std::move(staged.front()));
    return loaded;
}


// --- Search checkpoints --------------------------------------------------
// The text itself is search/checkpoint's (each driver section sits
// with its codec there); this is the file around it.

bool
saveCheckpoint(const SearchCheckpoint &c, const std::string &path)
{
    // A crash mid-write must never replace the previous good
    // checkpoint with a truncated one.
    const std::string text = encodeCheckpoint(c);
    return writeFileAtomically(path, [&](std::FILE *f) {
        std::fwrite(text.data(), 1, text.size(), f);
    });
}

bool
loadCheckpoint(const std::string &path, SearchCheckpoint *out,
               std::string *err)
{
    std::string text, why;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[1 << 16];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        if (std::ferror(f))
            why = "cannot read checkpoint file";
        std::fclose(f);
    } else {
        why = "cannot open checkpoint file";
    }
    if (why.empty())
        why = decodeCheckpoint(text, out);
    if (!why.empty() && err)
        *err = path + ": " + why;
    return why.empty();
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
