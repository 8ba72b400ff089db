/**
 * @file
 * Stable 64-bit content hashing for the evaluation cache: FNV-1a
 * over raw lanes with a SplitMix64-style finalizer, plus combinators
 * for the domain types a cache key is built from (partition scheme,
 * genome, buffer configuration, accelerator platform).
 *
 * Stability contract: these hashes are part of the on-disk cache
 * format (core/serialize), so they must produce the same value for
 * the same logical content on every platform and in every run. Only
 * value content is hashed — never addresses, iteration order of
 * unordered containers, or padding bytes.
 */

#ifndef COCCO_UTIL_HASH_H
#define COCCO_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cocco {

struct AcceleratorConfig;
struct BufferConfig;
struct CapacityGrid;
struct DseSpace;
struct Genome;
struct InterconnectConfig;
struct Partition;
class Graph;

/** FNV-1a offset basis: the seed of an empty hash chain. */
constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

/** Fold one 64-bit lane into the running hash (FNV-1a step over the
 *  lane's bytes, collapsed to one multiply per lane). */
uint64_t hashU64(uint64_t h, uint64_t lane);

/** Fold a signed integer lane. */
inline uint64_t
hashI64(uint64_t h, int64_t lane)
{
    return hashU64(h, static_cast<uint64_t>(lane));
}

/** Fold a double by its bit pattern (NaNs normalized; -0.0 == +0.0
 *  so equal-comparing keys hash equal). */
uint64_t hashDouble(uint64_t h, double v);

/** Fold a byte buffer. */
uint64_t hashBytes(uint64_t h, const void *data, size_t n);

/** Fold a string's characters (length-prefixed so "ab","c" and
 *  "a","bc" chains differ). */
uint64_t hashString(uint64_t h, const std::string &s);

/** Fold a vector of integer lanes, length-prefixed. */
template <typename T>
uint64_t
hashIntVector(uint64_t h, const std::vector<T> &v)
{
    static_assert(std::is_integral<T>::value, "integer lanes only");
    h = hashU64(h, v.size());
    for (T x : v)
        h = hashI64(h, static_cast<int64_t>(x));
    return h;
}

/** Final avalanche: spreads low-entropy chains across all 64 bits.
 *  Apply once, after the last lane. */
uint64_t hashFinalize(uint64_t h);

/** Combine two already-finalized hashes order-dependently. */
uint64_t hashCombine(uint64_t a, uint64_t b);

// --- Domain combinators (all fold into a running chain; call
//     hashFinalize() after the last one). ---------------------------

/** Fold a partition scheme (the per-node block vector). */
uint64_t hashPartition(uint64_t h, const Partition &p);

/** Fold a concrete buffer configuration (style + sizes). */
uint64_t hashBufferConfig(uint64_t h, const BufferConfig &buf);

/** Fold a capacity grid. */
uint64_t hashCapacityGrid(uint64_t h, const CapacityGrid &grid);

/** Fold a hardware design space (style, grids, frozen buffer). */
uint64_t hashDseSpace(uint64_t h, const DseSpace &space);

/** Fold a genome: partition scheme plus the hardware gene indices
 *  that are live under @p space (frozen genes are skipped so genomes
 *  that decode identically hash identically). */
uint64_t hashGenome(uint64_t h, const Genome &genome, const DseSpace &space);

/** Fold an accelerator platform as a model of @p cores cores of it
 *  behind the resolved interconnect @p ic sees it (every value the
 *  cost model reads; @p ic in place of the platform's own crossbar
 *  fields). */
uint64_t hashAccelerator(uint64_t h, const AcceleratorConfig &accel,
                         int cores, const InterconnectConfig &ic);

/** Fold a workload graph's identity: name, size, edge structure and
 *  per-layer shape content. */
uint64_t hashGraph(uint64_t h, const Graph &g);

} // namespace cocco

#endif // COCCO_UTIL_HASH_H
