/**
 * @file
 * The ModelRegistry: the one place that knows which models exist.
 * Every user-facing list (allModelNames, `--list-models`,
 * `describe-model`) is generated from it, and buildModel() dispatches
 * through it, so model names and parameter documentation cannot drift
 * from the builders.
 */

#include "models/models.h"

#include "util/field_walk.h"

namespace cocco {

ModelRegistry::ModelRegistry()
{
    // Paper presentation order (Section 5.1.1), then the extras.
    registerVggModels(*this);
    registerResNetModels(*this);
    registerGoogleNetModels(*this);
    registerTransformerModels(*this);
    registerRandWireModels(*this);
    registerNasNetModels(*this);
    registerMobileNetModels(*this);
}

ModelRegistry &
ModelRegistry::instance()
{
    static ModelRegistry registry;
    return registry;
}

void
ModelRegistry::add(ModelInfo info, ModelBuilderFn builder,
                   const std::vector<std::string> &aliases)
{
    if (find(info.name))
        fatal("model '%s' is already registered", info.name.c_str());
    for (const std::string &alias : aliases)
        if (find(alias))
            fatal("model alias '%s' is already registered",
                  alias.c_str());
    entries_.push_back({std::move(info), builder, aliases});
}

const ModelRegistry::Entry *
ModelRegistry::find(const std::string &name) const
{
    for (const Entry &e : entries_) {
        if (e.info.name == name)
            return &e;
        for (const std::string &alias : e.aliases)
            if (alias == name)
                return &e;
    }
    return nullptr;
}

bool
ModelRegistry::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

Graph
ModelRegistry::build(const std::string &name,
                     const ModelParams &params) const
{
    const Entry *e = find(name);
    if (!e)
        fatal("unknown model '%s' (known: %s)", name.c_str(),
              joinComma(keys()).c_str());
    return e->builder(params);
}

const ModelInfo &
ModelRegistry::info(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e)
        fatal("unknown model '%s'", name.c_str());
    return e->info;
}

std::vector<std::string>
ModelRegistry::keys() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        out.push_back(e.info.name);
    return out;
}

std::string
modelKnobsStr(const ModelInfo &info)
{
    std::string s;
    auto knob = [&](unsigned bit, const std::string &text) {
        if (info.knobs & bit)
            s += (s.empty() ? "" : " ") + text;
    };
    knob(kKnobResolution,
         strprintf("resolution=%d", info.defaults.resolution));
    knob(kKnobSeqLen, strprintf("seqLen=%d", info.defaults.seqLen));
    knob(kKnobDepth, strprintf("depth=%d", info.defaults.depth));
    knob(kKnobWidthMult,
         strprintf("widthMult=%g", info.defaults.widthMult));
    knob(kKnobSeed, strprintf("seed=%llu",
                              static_cast<unsigned long long>(
                                  info.defaults.seed)));
    return s;
}

Graph
buildModel(const std::string &name)
{
    return ModelRegistry::instance().build(name);
}

Graph
buildModel(const std::string &name, const ModelParams &params)
{
    return ModelRegistry::instance().build(name, params);
}

std::vector<std::string>
allModelNames()
{
    return ModelRegistry::instance().keys();
}

namespace {

/** The "params" block, written down once. A writer writes only the
 *  knobs that differ from their defaults. */
template <typename V, typename P>
void
paramsFields(V &v, P &p)
{
    static const ModelParams d;
    v.field(opt("batch", p.batch != d.batch), p.batch, atLeast(1));
    v.field(opt("resolution", p.resolution != d.resolution), p.resolution,
            atLeast(0));
    v.field(opt("seqLen", p.seqLen != d.seqLen), p.seqLen, atLeast(0));
    v.field(opt("depth", p.depth != d.depth), p.depth, atLeast(0));
    v.field(opt("widthMult", p.widthMult != d.widthMult), p.widthMult,
            above(0));
    v.field(opt("seed", p.seed != d.seed), p.seed);
}

} // namespace

void
modelParamsFields(FieldWalk<false> &v, const ModelParams &p)
{
    paramsFields(v, p);
}

void
modelParamsFields(FieldWalk<true> &v, ModelParams &p)
{
    paramsFields(v, p);
}

} // namespace cocco
