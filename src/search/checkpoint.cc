#include "search/checkpoint.h"

#include <cctype>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <utility>

#include "search/driver.h"
#include "search/pareto.h"
#include "sim/cost_model.h"
#include "util/hash.h"
#include "util/logging.h"

namespace cocco {

namespace {

/** The fence lanes every driver shares: evaluation context (model,
 *  space, objective knobs) plus the run identity (algo, seed, budget).
 *  Mirrors the evaluation-context salt but adds what the salt
 *  deliberately leaves out — seed and budget — because a checkpoint
 *  is a position inside ONE specific run, not a shareable value. */
uint64_t
baseFence(const CostModel &model, const DseSpace &space,
          const EvalOptions &opts, const std::string &algo)
{
    uint64_t h = model.contextHash(kHashSeed);
    h = hashDseSpace(h, space);
    h = hashString(h, algo);
    h = hashU64(h, opts.seed);
    h = hashI64(h, opts.sampleBudget);
    h = hashDouble(h, opts.alpha);
    h = hashU64(h, static_cast<uint64_t>(opts.metric));
    h = hashU64(h, opts.coExplore ? 1 : 0);
    h = hashU64(h, opts.inSituSplit ? 1 : 0);
    return h;
}

} // namespace

RunRecord::RunRecord(EvalEngine &engine, Rng *rng, const char *algo,
                     uint64_t fence, SectionFn section, bool recordPoints)
    : RunRecord(engine.model(), engine.space(), engine.options(),
                engine.monitor(), engine.cache().get(), algo, fence,
                std::move(section))
{
    engine_ = &engine;
    rng_ = rng;
    pareto_ = opts_.pareto;
    recordPoints_ = recordPoints;
}

RunRecord::RunRecord(CostModel &model, const DseSpace &space,
                     const EvalOptions &opts, SearchMonitor &monitor,
                     EvalCache *cache, const char *algo, uint64_t fence,
                     SectionFn section)
    : model_(model), space_(space), opts_(opts), mon_(monitor),
      cache_(cache), cacheStart_(cache ? cache->stats() : EvalCacheStats()),
      algo_(algo), fence_(fence), section_(std::move(section))
{
}

bool
RunRecord::record(const Genome &genome, double cost)
{
    ++res_.samples;
    const bool improved = cost < res_.bestCost;
    if (improved) {
        res_.bestCost = cost;
        res_.best = genome;
    }
    res_.trace.push_back({res_.samples, res_.bestCost});
    mon_.recordSample(res_.trace.back(), improved);
    if (recordPoints_ || pareto_) {
        // An archive offer reads only what Objective scope completes
        // for a feasible partition; a recorded point keeps an
        // infeasible sample's metric, a partial sum there.
        const BufferConfig buf = genome.buffer(space_);
        const GraphCost gc = model_.partitionCost(
            genome.part, buf, nullptr,
            recordPoints_ ? CostModel::CostScope::Full
                          : CostModel::CostScope::Objective);
        const double metric = gc.metricValue(opts_.metric);
        if (recordPoints_)
            res_.points.push_back({res_.samples, metric, buf.totalBytes()});
        if (pareto_ && gc.feasible)
            pareto_->offer({buf.totalBytes(), gc.energyPj, gc.latencyCycles,
                            metric, res_.samples});
    }
    return improved;
}

SearchCheckpoint
RunRecord::head() const
{
    SearchCheckpoint c;
    c.algo = algo_;
    c.fence = fence_;
    c.samples = res_.samples;
    c.bestCost = res_.bestCost;
    c.best = res_.best;
    if (rng_)
        c.rng = rng_->state();
    c.streamCounter = boundary_;
    c.sinceImprove = mon_.samplesSinceImprove();
    c.section = section_();
    return c;
}

SearchCheckpoint
RunRecord::snapshot() const
{
    SearchCheckpoint c = held_ ? *held_ : head();
    const size_t trace = held_ ? heldTrace_ : res_.trace.size();
    const size_t points = held_ ? heldPoints_ : res_.points.size();
    c.trace.assign(res_.trace.begin(), res_.trace.begin() + trace);
    c.points.assign(res_.points.begin(), res_.points.begin() + points);
    return c;
}

const SearchCheckpoint *
RunRecord::resume()
{
    const CheckpointHooks *ck = opts_.checkpoint;
    if (!ck || !ck->resume)
        return nullptr;
    const SearchCheckpoint &c = *ck->resume;
    if (c.algo != algo_ || c.fence != fence_)
        fatal("checkpoint does not match this run (saved by \"%s\", "
              "fence mismatch or different configuration)",
              c.algo.c_str());
    copyShared(c, res_);
    if (rng_)
        rng_->setState(c.rng);
    if (engine_)
        engine_->setStreamCounter(boundary_ = c.streamCounter);
    mon_.restoreStall(c.sinceImprove);
    return &c;
}

void
RunRecord::boundary()
{
    // The live counter runs ahead of the boundary while a batch is in
    // flight (discarded partial batches included), so capture it here.
    if (engine_)
        boundary_ = engine_->streamCounter();
    CheckpointHooks *ck = opts_.checkpoint;
    if (ck && ck->save &&
        ck->request.exchange(false, std::memory_order_acq_rel))
        ck->save(snapshot());
}

void
RunRecord::hold()
{
    if (opts_.checkpoint && opts_.checkpoint->save) {
        held_ = head();
        heldTrace_ = res_.trace.size();
        heldPoints_ = res_.points.size();
    }
}

SearchResult
RunRecord::finish(const BufferConfig *heldBuffer)
{
    res_.stop = mon_.stopReason();
    // The killed-job path: persist the last boundary, from which a
    // resume replays the rest bit-identically. (A budget or stall end
    // is final; nothing is left to resume.)
    CheckpointHooks *ck = opts_.checkpoint;
    if (ck && ck->save && ck->saveOnStop &&
        (res_.stop == StopReason::Cancelled ||
         res_.stop == StopReason::TimeLimit) &&
        (held_ || (engine_ && res_.samples > 0)))
        ck->save(snapshot());
    if (heldBuffer ? res_.bestCost < kInfeasiblePenalty : res_.samples > 0) {
        res_.bestBuffer = heldBuffer ? *heldBuffer : res_.best.buffer(space_);
        res_.bestGraphCost =
            model_.partitionCost(res_.best.part, res_.bestBuffer);
    }
    if (cache_)
        res_.cacheStats = cache_->stats() - cacheStart_;
    if (engine_)
        res_.deltaStats = engine_->deltaStats();
    return std::move(res_);
}

// --- The checkpoint text -------------------------------------------------
// One record per line: a tag, then fields separated by single spaces.
// Integers are decimal (hex for hashes and RNG words), doubles C99
// hexfloats, so every value round-trips bit for bit. bodyLines and the
// sections' lines() say once what a snapshot holds; LineWriter and
// LineReader walk them to write and to read.

namespace {

constexpr const char *kCheckpointMagic = "COCCO-CHECKPOINT";

/** Ceilings: a longer trace, points list or genome is a corrupt or
 *  hostile file, not a real run. */
constexpr int64_t kMaxPersistedSamples = 1LL << 26;
constexpr int64_t kMaxPersistedNodes = 1LL << 22;

/** A section type as a value, for eachSectionType's callback. */
template <typename T> struct SectionType
{
    using type = T;
};

template <typename F, size_t... I>
void
eachSectionTypeIn(F &f, std::index_sequence<I...>)
{
    using Section = SearchCheckpoint::Section;
    (f(SectionType<std::variant_alternative_t<I + 1, Section>>()), ...);
}

/** Call @p f with SectionType<T>() for every section type T. */
template <typename F>
void
eachSectionType(F &&f)
{
    eachSectionTypeIn(
        f, std::make_index_sequence<
               std::variant_size_v<SearchCheckpoint::Section> - 1>());
}

/** Why @p c's section is not its algo's ("" when it is). */
std::string
sectionError(const SearchCheckpoint &c)
{
    const char *want = nullptr;
    eachSectionType([&](auto t) {
        using T = typename decltype(t)::type;
        if (T::owns(c.algo))
            want = T::kName;
    });
    const char *have = std::visit(
        [](const auto &s) -> const char * {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, std::monostate>)
                return nullptr;
            else
                return T::kName;
        },
        c.section);
    if (!want)
        return strprintf("\"%s\" runs save no checkpoint", c.algo.c_str());
    if (!have)
        return strprintf("the \"%s\" checkpoint has no %s section",
                         c.algo.c_str(), want);
    if (std::string(have) != want)
        return strprintf("the \"%s\" checkpoint carries the %s section, "
                         "not the %s one",
                         c.algo.c_str(), have, want);
    return "";
}

/** A snapshot's lines: the shared state, then its section. */
template <typename L, typename C> void bodyLines(L &l, C &c);

/** Walks the lines to append them to a text. */
class LineWriter
{
  public:
    explicit LineWriter(std::string &out) : out_(out) {}

    LineWriter &
    line(const char *tag, const char *)
    {
        out_ += tag;
        return *this;
    }

    LineWriter &
    word(const std::string &w)
    {
        out_ += ' ';
        out_ += w;
        return *this;
    }

    /** An integer (its bounds are the reader's). */
    template <typename Int>
    LineWriter &
    num(Int v, int64_t = 0, int64_t = 0, int base = 10)
    {
        char buf[24];
        const auto r = std::to_chars(buf, buf + sizeof buf, v, base);
        out_ += ' ';
        out_.append(buf, r.ptr);
        return *this;
    }

    LineWriter &hex(uint64_t v) { return num(v, 0, 0, 16); }

    LineWriter &
    real(double v)
    {
        char buf[40];
        const int n = std::snprintf(buf, sizeof buf, "%a", v);
        out_ += ' ';
        out_.append(buf, static_cast<size_t>(n));
        return *this;
    }

    LineWriter &
    genome(const Genome &g)
    {
        num(g.actIdx).num(g.weightIdx).num(g.sharedIdx);
        num(g.part.numBlocks).num(g.part.block.size());
        for (int b : g.part.block.ids())
            num(b);
        return *this;
    }

    LineWriter &
    buffer(const BufferConfig &b)
    {
        return num(static_cast<int>(b.style))
            .num(b.actBytes)
            .num(b.weightBytes)
            .num(b.sharedBytes);
    }

    template <typename T>
    LineWriter &
    count(const std::vector<T> &v, int64_t)
    {
        return num(v.size());
    }

    void end() { out_ += '\n'; }

    void
    section(const SearchCheckpoint &c)
    {
        std::visit(
            [&](const auto &s) {
                using T = std::decay_t<decltype(s)>;
                if constexpr (!std::is_same_v<T, std::monostate>)
                    T::lines(*this, s);
            },
            c.section);
    }

    void racer(const RaceEntry &e) { bodyLines(*this, e.snapshot); }

  private:
    std::string &out_;
};

/**
 * Walks the lines to read them back, strictly: each field must have
 * its exact form and range (no sign where none belongs, no value past
 * its type or ceiling, no empty field, nothing left on a line), a
 * section must be its algo's, and a race nests one level deep. The
 * first failure wins; the lines after it read nothing.
 */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : text_(text) {}

    bool ok() const { return err_.empty(); }

    /** "" or the first failure: "line N: corrupt <what>". */
    const std::string &error() const { return err_; }

    /** Take the next line, which must open with @p tag; @p what names
     *  it in a failure. */
    LineReader &
    line(const char *tag, const char *what)
    {
        if (!ok())
            return *this;
        what_ = what;
        const size_t end = text_.find('\n', pos_);
        if (end == std::string_view::npos) {
            err_ = "truncated checkpoint file";
            return *this;
        }
        ++lineNo_;
        rest_ = text_.substr(pos_, end - pos_);
        pos_ = end + 1;
        const size_t n = std::min(rest_.find(' '), rest_.size());
        if (rest_.substr(0, n) != tag)
            bad();
        rest_.remove_prefix(n);
        return *this;
    }

    LineReader &
    word(std::string &w)
    {
        return take([&](std::string_view f) {
            w = std::string(f);
            return true;
        });
    }

    /** A decimal integer in [@p lo, @p hi]. */
    template <typename Int>
    LineReader &
    num(Int &v, int64_t lo, int64_t hi)
    {
        return take([&](std::string_view f) {
            int64_t x = 0;
            if (!whole(f, std::from_chars(f.data(), fieldEnd(f), x)) ||
                x < lo || x > hi)
                return false;
            v = static_cast<Int>(x);
            return true;
        });
    }

    /** A decimal (or, base 16, hex) unsigned 64-bit integer. */
    LineReader &
    num(uint64_t &v, int base = 10)
    {
        return take([&](std::string_view f) {
            return whole(f, std::from_chars(f.data(), fieldEnd(f), v, base));
        });
    }

    LineReader &hex(uint64_t &v) { return num(v, 16); }

    /** A finite hexfloat, as %a writes it. */
    LineReader &
    real(double &v)
    {
        return take([&](std::string_view f) {
            const bool neg = f[0] == '-';
            f.remove_prefix(neg ? 1 : 0);
            double x = 0.0;
            if (f.size() < 3 || f.substr(0, 2) != "0x" ||
                !std::isxdigit(static_cast<unsigned char>(f[2])) ||
                !whole(f.substr(2),
                       std::from_chars(f.data() + 2, fieldEnd(f), x,
                                       std::chars_format::hex)) ||
                !std::isfinite(x))
                return false;
            v = neg ? -x : x;
            return true;
        });
    }

    /** Grid indices, block count, length, then one block id in
     *  [0, block count) per node. */
    LineReader &
    genome(Genome &g)
    {
        int64_t n = 0;
        num(g.actIdx, 0, INT_MAX).num(g.weightIdx, 0, INT_MAX);
        num(g.sharedIdx, 0, INT_MAX);
        num(g.part.numBlocks, 0, kMaxPersistedNodes);
        // Each id takes two characters at least.
        num(n, g.part.numBlocks,
            std::min<int64_t>(kMaxPersistedNodes, rest_.size() / 2));
        std::vector<int> ids(ok() ? static_cast<size_t>(n) : 0);
        for (int &id : ids)
            num(id, 0, g.part.numBlocks - 1);
        if (ok())
            g.part.block = std::move(ids);
        return *this;
    }

    LineReader &
    buffer(BufferConfig &b)
    {
        int style = 0;
        num(style, 0, 1).num(b.actBytes, 0, INT64_MAX);
        num(b.weightBytes, 0, INT64_MAX).num(b.sharedBytes, 0, INT64_MAX);
        b.style = static_cast<BufferStyle>(style);
        return *this;
    }

    /** A length of at most @p max: @p v takes it. */
    template <typename T>
    LineReader &
    count(std::vector<T> &v, int64_t max)
    {
        // Each entry takes a line of two characters at least.
        int64_t n = 0;
        num(n, 0, std::min<int64_t>(max, (text_.size() - pos_) / 2));
        if (ok())
            v.resize(static_cast<size_t>(n));
        return *this;
    }

    /** Nothing may be left on the line. */
    void
    end()
    {
        if (ok() && !rest_.empty())
            bad();
    }

    /** The section the next line opens, if any: the algo's. */
    void
    section(SearchCheckpoint &c)
    {
        if (!ok())
            return;
        const std::string_view rest = text_.substr(pos_);
        const std::string_view tag = rest.substr(0, rest.find_first_of(" \n"));
        if (racing_ && tag == RaceSection::kTag)
            return fail("a racer carries a race of its own");
        eachSectionType([&](auto t) {
            using T = typename decltype(t)::type;
            if (tag != T::kTag)
                return;
            T s;
            T::lines(*this, s);
            c.section = std::move(s);
        });
        // A race entry decides whether its racer needs one.
        if (!ok() ||
            (racing_ && std::holds_alternative<std::monostate>(c.section)))
            return;
        const std::string why = sectionError(c);
        if (!why.empty())
            fail(why);
    }

    /** Race entry @p e's snapshot, one level down; an ended racer
     *  carries no section, and one with samples its driver's. */
    void
    racer(RaceEntry &e)
    {
        racing_ = true;
        bodyLines(*this, e.snapshot);
        racing_ = false;
        const bool section =
            !std::holds_alternative<std::monostate>(e.snapshot.section);
        if (ok() && e.state != RaceEntry::kActive && section)
            fail("an ended racer carries a section");
        else if (ok() && e.resumes() && !section)
            fail("a racer with samples carries no section");
    }

    /** The text ends here. */
    void
    finish()
    {
        if (ok() && pos_ != text_.size())
            fail("data after END");
    }

  private:
    void
    fail(const std::string &why)
    {
        err_ = strprintf("line %d: %s", lineNo_, why.c_str());
    }

    void bad() { fail("corrupt " + what_); }

    /** Parse the next field (exactly one space, then at least one
     *  other character up to a space or the line's end) by @p parse. */
    template <typename Parse>
    LineReader &
    take(Parse &&parse)
    {
        if (!ok())
            return *this;
        if (rest_.size() < 2 || rest_[0] != ' ' || rest_[1] == ' ') {
            bad();
            return *this;
        }
        const size_t n = std::min(rest_.find(' ', 1), rest_.size());
        if (!parse(rest_.substr(1, n - 1)))
            bad();
        rest_.remove_prefix(n);
        return *this;
    }

    static const char *
    fieldEnd(std::string_view f)
    {
        return f.data() + f.size();
    }

    /** @p r parsed all of @p f. */
    static bool
    whole(std::string_view f, std::from_chars_result r)
    {
        return r.ec == std::errc() && r.ptr == fieldEnd(f);
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string_view rest_; ///< the current line's unread fields
    int lineNo_ = 0;
    std::string what_;
    std::string err_;
    bool racing_ = false; ///< inside a race entry's snapshot
};

template <typename L, typename C>
void
bodyLines(L &l, C &c)
{
    const int64_t maxSamples = kMaxPersistedSamples;
    l.line("A", "header").word(c.algo).hex(c.fence).end();
    l.line("S", "run state")
        .num(c.samples, 0, maxSamples)
        .real(c.bestCost)
        .num(c.sinceImprove, 0, maxSamples)
        .hex(c.streamCounter)
        .end();
    l.line("R", "RNG state")
        .hex(c.rng[0])
        .hex(c.rng[1])
        .hex(c.rng[2])
        .hex(c.rng[3])
        .end();
    l.line("B", "incumbent genome").genome(c.best).end();
    l.line("T", "trace header").count(c.trace, maxSamples).end();
    for (auto &tp : c.trace)
        l.line("t", "trace entry")
            .num(tp.sample, 0, maxSamples)
            .real(tp.bestCost)
            .end();
    l.line("P", "points header").count(c.points, maxSamples).end();
    for (auto &sp : c.points)
        l.line("p", "points entry")
            .num(sp.sample, 0, maxSamples)
            .real(sp.metric)
            .num(sp.bufferBytes, 0, INT64_MAX)
            .end();
    l.section(c);
}

/** Why @p genome (named @p what) does not fit @p g: another length,
 *  or, for an operator input (@p operand), not canonical. */
std::string
genomeFitError(Genome &genome, const std::string &what, const Graph &g,
               bool operand)
{
    const size_t len = genome.part.block.size();
    if (len != static_cast<size_t>(g.size()))
        return strprintf("%s has %zu nodes, the model has %d", what.c_str(),
                         len, g.size());
    if (operand && !genome.part.checkCanonical(g))
        return what + " is not a canonical partition (structural repair "
                      "would renumber or split it)";
    return "";
}

/** Every genome of @p c against @p g: the incumbent (none yet is
 *  fine: no sample has beaten the penalty), then its section's. */
std::string
genomesError(SearchCheckpoint &c, const Graph &g)
{
    if (!c.best.part.block.empty()) {
        std::string err = genomeFitError(c.best, "incumbent genome", g, false);
        if (!err.empty())
            return err;
    }
    return std::visit(
        [&](auto &s) -> std::string {
            if constexpr (std::is_same_v<std::decay_t<decltype(s)>,
                                         std::monostate>)
                return "";
            else
                return s.genomeError(g);
        },
        c.section);
}

/** checkpointError without the genome checks (it reads @p c only). */
std::string
identityError(const SearchCheckpoint &c, const CostModel &model,
              const DseSpace &space, const SearchSpec &spec)
{
    if (c.algo != spec.algo)
        return strprintf("saved by \"%s\", this run is \"%s\"",
                         c.algo.c_str(), spec.algo.c_str());
    if (c.fence != checkpointFence(model, space, spec))
        return strprintf("saved by another \"%s\" run (fence mismatch: the "
                         "model, design space, seed, budget, objective or "
                         "%s parameters differ)",
                         c.algo.c_str(), c.algo.c_str());
    std::string err = sectionError(c);
    if (!err.empty())
        return err;
    if (const auto *ga = std::get_if<GaSection>(&c.section);
        ga && ga->population.size() != static_cast<size_t>(spec.ga.population))
        return strprintf("the GA population holds %zu genomes, this run's "
                         "holds %d",
                         ga->population.size(), spec.ga.population);
    const auto *race = std::get_if<RaceSection>(&c.section);
    if (!race)
        return "";
    const std::vector<std::string> &lineUp = spec.portfolio.racers;
    if (race->racers.size() != lineUp.size())
        return strprintf("the race holds %zu racers, this run races %zu",
                         race->racers.size(), lineUp.size());
    for (size_t i = 0; i < lineUp.size(); ++i) {
        const RaceEntry &e = race->racers[i];
        if (e.snapshot.algo != lineUp[i])
            return strprintf("racer %zu is \"%s\", this run's racer %zu is "
                             "\"%s\"",
                             i, e.snapshot.algo.c_str(), i,
                             lineUp[i].c_str());
        if (e.state < RaceEntry::kActive || e.state > RaceEntry::kFinished)
            return strprintf("racer %zu has state %d (not active, culled or "
                             "finished)",
                             i, e.state);
        if (!e.resumes())
            continue;
        SearchSpec racer = spec;
        racer.algo = lineUp[i];
        err = identityError(e.snapshot, model, space, racer);
        if (!err.empty())
            return strprintf("racer %zu: ", i) + err;
    }
    return "";
}

} // namespace

// --- Each section's genome check and fence. ---

std::string
GaSection::genomeError(const Graph &g)
{
    std::string err;
    for (size_t i = 0; err.empty() && i < population.size(); ++i)
        err = genomeFitError(population[i].genome,
                             strprintf("population genome %zu", i), g, true);
    return err;
}

uint64_t
GaSection::fence(const CostModel &model, const DseSpace &space,
                 const SearchSpec &spec)
{
    return gaCheckpointFence(model, space, gaOptions(spec));
}

std::string
SaSection::genomeError(const Graph &g)
{
    return genomeFitError(cur, "SA current genome", g, true);
}

uint64_t
SaSection::fence(const CostModel &model, const DseSpace &space,
                 const SearchSpec &spec)
{
    return saCheckpointFence(model, space, saOptions(spec));
}

uint64_t
SweepSection::fence(const CostModel &model, const DseSpace &space,
                    const SearchSpec &spec)
{
    return twoStepCheckpointFence(model, space, twoStepOptions(spec),
                                  spec.algo);
}

std::string
RaceSection::genomeError(const Graph &g)
{
    std::string err;
    for (size_t i = 0; err.empty() && i < racers.size(); ++i) {
        err = genomesError(racers[i].snapshot, g);
        if (!err.empty())
            err = strprintf("racer %zu: ", i) + err;
    }
    return err;
}

uint64_t
RaceSection::fence(const CostModel &model, const DseSpace &space,
                   const SearchSpec &spec)
{
    return portfolioCheckpointFence(model, space, spec.eval,
                                    spec.portfolio);
}

// --- The public surface. ---

std::string
encodeCheckpoint(const SearchCheckpoint &c)
{
    std::string text;
    LineWriter out(text);
    out.line(kCheckpointMagic, "").num(SearchCheckpoint::kVersion).end();
    bodyLines(out, c);
    out.line("END", "").end();
    return text;
}

std::string
decodeCheckpoint(std::string_view text, SearchCheckpoint *out)
{
    LineReader in(text);
    int version = -1;
    in.line(kCheckpointMagic, "").num(version, 0, INT_MAX).end();
    if (!in.ok())
        return "not a cocco checkpoint file";
    if (version != SearchCheckpoint::kVersion)
        return strprintf("unsupported checkpoint format version %d (this "
                         "build reads %d)",
                         version, SearchCheckpoint::kVersion);
    SearchCheckpoint c;
    bodyLines(in, c);
    in.line("END", "end marker").end();
    in.finish();
    if (!in.ok())
        return in.error();
    *out = std::move(c);
    return "";
}

std::string
checkpointError(SearchCheckpoint &c, const CostModel &model,
                const DseSpace &space, const SearchSpec &spec)
{
    std::string err = identityError(c, model, space, spec);
    return err.empty() ? genomesError(c, model.graph()) : err;
}

uint64_t
checkpointFence(const CostModel &model, const DseSpace &space,
                const SearchSpec &spec)
{
    uint64_t fence = 0;
    eachSectionType([&](auto t) {
        using T = typename decltype(t)::type;
        if (T::owns(spec.algo))
            fence = T::fence(model, space, spec);
    });
    return fence;
}

uint64_t
gaCheckpointFence(const CostModel &model, const DseSpace &space,
                  const GaOptions &opts)
{
    uint64_t h = baseFence(model, space, opts, "ga");
    h = hashI64(h, opts.population);
    h = hashDouble(h, opts.crossoverRate);
    h = hashDouble(h, opts.mutPartitionRate);
    h = hashDouble(h, opts.mutDseRate);
    h = hashI64(h, opts.tournament);
    h = hashI64(h, opts.elite);
    h = hashU64(h, opts.recordPoints ? 1 : 0);
    return hashFinalize(h);
}

uint64_t
saCheckpointFence(const CostModel &model, const DseSpace &space,
                  const SaOptions &opts)
{
    uint64_t h = baseFence(model, space, opts, "sa");
    h = hashDouble(h, opts.tempStartFrac);
    h = hashDouble(h, opts.tempEndFrac);
    h = hashDouble(h, opts.dseMutationRate);
    h = hashI64(h, opts.neighborBatch);
    return hashFinalize(h);
}

uint64_t
twoStepCheckpointFence(const CostModel &model, const DseSpace &space,
                       const TwoStepOptions &opts, const std::string &algo)
{
    uint64_t h = baseFence(model, space, opts, algo);
    h = hashI64(h, space.searchHw ? opts.samplesPerCandidate : 0);
    h = hashI64(h, opts.population);
    return hashFinalize(h);
}

uint64_t
portfolioCheckpointFence(const CostModel &model, const DseSpace &space,
                         const EvalOptions &opts,
                         const PortfolioParams &params)
{
    uint64_t h = baseFence(model, space, opts, "portfolio");
    h = hashI64(h, static_cast<int64_t>(params.racers.size()));
    for (const std::string &racer : params.racers)
        h = hashString(h, racer);
    h = hashU64(h, params.deterministicRace ? 1 : 0);
    h = hashI64(h, params.checkEvals);
    h = hashI64(h, params.warmupEvals);
    return hashFinalize(h);
}

} // namespace cocco
