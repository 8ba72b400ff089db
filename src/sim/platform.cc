#include "sim/platform.h"

#include "util/field_walk.h"

namespace cocco {

PlatformRegistry::PlatformRegistry()
{
    AcceleratorConfig simba; // the defaults ARE the paper platform
    add("simba",
        "Simba-like single core (4x4 PEs x 64 MACs, 2.048 TOPS, "
        "16 GB/s; paper Section 5.1.2)",
        simba);

    AcceleratorConfig multicore = simba;
    multicore.cores = 4;
    add("simba-x4",
        "four simba cores, weights sharded over the crossbar "
        "(the Table 3 scale-out)",
        multicore);

    AcceleratorConfig edge = simba;
    edge.peRows = 2;
    edge.peCols = 2;
    edge.clockGhz = 0.8;
    edge.dramGBpsPerCore = 8.0;
    add("edge",
        "budget device: 2x2 PEs at 0.8 GHz, 8 GB/s DRAM",
        edge);

    AcceleratorConfig cloud = simba;
    cloud.peRows = 8;
    cloud.peCols = 8;
    cloud.dramGBpsPerCore = 64.0;
    cloud.batch = 8;
    add("cloud",
        "server part: 8x8 PEs (8.192 TOPS), 64 GB/s DRAM, batch 8",
        cloud);
}

PlatformRegistry &
PlatformRegistry::instance()
{
    static PlatformRegistry registry;
    return registry;
}

void
PlatformRegistry::add(const std::string &name, const std::string &summary,
                      const AcceleratorConfig &config)
{
    if (find(name))
        fatal("platform '%s' is already registered", name.c_str());
    entries_.push_back({name, summary, config});
}

const PlatformRegistry::Entry *
PlatformRegistry::find(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return &e;
    return nullptr;
}

bool
PlatformRegistry::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

bool
PlatformRegistry::find(const std::string &name,
                       AcceleratorConfig *out) const
{
    const Entry *e = find(name);
    if (!e)
        return false;
    *out = e->config;
    return true;
}

std::vector<std::string>
PlatformRegistry::keys() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        out.push_back(e.name);
    return out;
}

const std::string &
PlatformRegistry::summary(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e)
        fatal("unknown platform '%s'", name.c_str());
    return e->summary;
}

namespace {

std::string
knownPlatforms()
{
    return joinComma(PlatformRegistry::instance().keys());
}

} // namespace

AcceleratorConfig
platformPreset(const std::string &name)
{
    AcceleratorConfig out;
    if (!PlatformRegistry::instance().find(name, &out))
        fatal("unknown platform '%s' (known: %s)", name.c_str(),
              knownPlatforms().c_str());
    return out;
}

namespace {

/** The platform document, written down once. */
template <typename V, typename A>
void
fields(V &v, A &a)
{
    v.base("base", a, PlatformRegistry::instance(), "platform");
    // Positive integer dimensions and positive physical rates.
    v.field(opt("peRows"), a.peRows, atLeast(1));
    v.field(opt("peCols"), a.peCols, atLeast(1));
    v.field(opt("macsPerPe"), a.macsPerPe, atLeast(1));
    v.field(opt("clockGhz"), a.clockGhz, above(0));
    v.field(opt("dramGBpsPerCore"), a.dramGBpsPerCore, above(0));
    v.field(opt("maxRegions"), a.maxRegions, atLeast(1));
    v.field(opt("channelAlign"), a.channelAlign, atLeast(1));
    v.field(opt("doubleBufferWeights"), a.doubleBufferWeights);
    v.field(opt("cores"), a.cores, atLeast(1));
    v.field(opt("batch"), a.batch, atLeast(1));
    v.field(opt("crossbarBytesPerCycle"), a.crossbarBytesPerCycle,
            above(0));
    // Every energy term: zeroing one is a valid what-if; a negative
    // energy is not.
    v.object(opt("energy"), [&] {
        v.field(opt("dramPjPerByte"), a.energy.dramPjPerByte, atLeast(0));
        v.field(opt("sramBasePjPerByte"), a.energy.sramBasePjPerByte,
                atLeast(0));
        v.field(opt("sramSlopePjPerByte"), a.energy.sramSlopePjPerByte,
                atLeast(0));
        v.field(opt("macPj"), a.energy.macPj, atLeast(0));
        v.field(opt("crossbarPjPerByte"), a.energy.crossbarPjPerByte,
                atLeast(0));
        v.field(opt("sramAreaMm2PerMB"), a.energy.sramAreaMm2PerMB,
                atLeast(0));
    });
}

template <typename V, typename P>
void
address(V &v, P &p)
{
    v.address(p.preset, p.file, p.inlineConfig,
              [&] { fields(v, p.config); });
}

} // namespace

void
platformAddress(FieldWalk<false> &v, const PlatformSpec &p)
{
    address(v, p);
}

void
platformAddress(FieldWalk<true> &v, PlatformSpec &p)
{
    address(v, p);
}

std::string
acceleratorToJson(const AcceleratorConfig &accel)
{
    JsonWriter w;
    FieldWalk<false> v(&w);
    v.members([&] { fields(v, accel); });
    return w.str();
}

bool
acceleratorFromJson(const JsonValue &doc, AcceleratorConfig *out,
                    std::string *err)
{
    AcceleratorConfig accel;
    std::string why;
    FieldWalk<true> v("platform", &why);
    if (!v.read(doc, "", [&] { v.members([&] { fields(v, accel); }); }))
        return jsonFail(err, why);
    *out = accel;
    return true;
}

} // namespace cocco
