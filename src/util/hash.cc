#include "util/hash.h"

#include <cmath>
#include <limits>
#include <type_traits>

#include "graph/graph.h"
#include "mem/buffer_config.h"
#include "partition/partition.h"
#include "search/genome.h"
#include "sim/multicore.h"

namespace cocco {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

} // namespace

uint64_t
hashU64(uint64_t h, uint64_t lane)
{
    // One FNV-1a xor/multiply per lane; lanes are pre-mixed so
    // low-entropy integers (small block ids) still perturb high bits.
    lane *= 0x9e3779b97f4a7c15ULL;
    lane ^= lane >> 29;
    return (h ^ lane) * kFnvPrime;
}

uint64_t
hashDouble(uint64_t h, double v)
{
    if (std::isnan(v))
        v = std::numeric_limits<double>::quiet_NaN(); // one canonical NaN
    if (v == 0.0)
        v = 0.0; // collapse -0.0 onto +0.0
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return hashU64(h, bits);
}

uint64_t
hashBytes(uint64_t h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

uint64_t
hashString(uint64_t h, const std::string &s)
{
    h = hashU64(h, s.size());
    return hashBytes(h, s.data(), s.size());
}

uint64_t
hashFinalize(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
}

uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    return hashFinalize(hashU64(hashU64(kHashSeed, a), b));
}

uint64_t
hashPartition(uint64_t h, const Partition &p)
{
    return hashIntVector(h, p.block.ids());
}

uint64_t
hashBufferConfig(uint64_t h, const BufferConfig &buf)
{
    h = hashU64(h, static_cast<uint64_t>(buf.style));
    if (buf.style == BufferStyle::Shared)
        return hashI64(h, buf.sharedBytes);
    h = hashI64(h, buf.actBytes);
    return hashI64(h, buf.weightBytes);
}

uint64_t
hashCapacityGrid(uint64_t h, const CapacityGrid &grid)
{
    h = hashI64(h, grid.minBytes);
    h = hashI64(h, grid.stepBytes);
    return hashI64(h, grid.count);
}

uint64_t
hashDseSpace(uint64_t h, const DseSpace &space)
{
    h = hashU64(h, static_cast<uint64_t>(space.style));
    h = hashU64(h, space.searchHw ? 1 : 0);
    if (!space.searchHw)
        return hashBufferConfig(h, space.fixed);
    h = hashCapacityGrid(h, space.actGrid);
    h = hashCapacityGrid(h, space.weightGrid);
    return hashCapacityGrid(h, space.sharedGrid);
}

uint64_t
hashGenome(uint64_t h, const Genome &genome, const DseSpace &space)
{
    h = hashPartition(h, genome.part);
    if (!space.searchHw)
        return h; // frozen buffer: hardware genes are dead
    if (space.style == BufferStyle::Shared)
        return hashI64(h, genome.sharedIdx);
    h = hashI64(h, genome.actIdx);
    return hashI64(h, genome.weightIdx);
}

uint64_t
hashAccelerator(uint64_t h, const AcceleratorConfig &accel, int cores,
                const InterconnectConfig &ic)
{
    h = hashI64(h, accel.peRows);
    h = hashI64(h, accel.peCols);
    h = hashI64(h, accel.macsPerPe);
    h = hashDouble(h, accel.clockGhz);
    h = hashDouble(h, accel.dramGBpsPerCore);
    h = hashI64(h, accel.maxRegions);
    h = hashI64(h, accel.channelAlign);
    h = hashU64(h, accel.doubleBufferWeights ? 1 : 0);
    h = hashI64(h, cores);
    h = hashI64(h, accel.batch);
    h = hashDouble(h, ic.bytesPerCycle);
    h = hashDouble(h, accel.energy.dramPjPerByte);
    h = hashDouble(h, accel.energy.sramBasePjPerByte);
    h = hashDouble(h, accel.energy.sramSlopePjPerByte);
    h = hashDouble(h, accel.energy.macPj);
    h = hashDouble(h, ic.pjPerByteHop);
    return h;
}

uint64_t
hashGraph(uint64_t h, const Graph &g)
{
    h = hashString(h, g.name());
    h = hashU64(h, g.size());
    h = hashU64(h, g.numEdges());
    for (NodeId v = 0; v < g.size(); ++v) {
        const Layer &l = g.layer(v);
        h = hashU64(h, static_cast<uint64_t>(l.kind));
        h = hashI64(h, l.outH);
        h = hashI64(h, l.outW);
        h = hashI64(h, l.outC);
        h = hashI64(h, l.kernel);
        h = hashI64(h, l.stride);
        h = hashIntVector(h, g.preds(v));
    }
    return h;
}

} // namespace cocco
