/**
 * @file
 * The evaluation cache: memoized genome evaluation for the search
 * drivers (GA/SA/two-step), so near-identical genomes produced by
 * crossover/mutation are never re-evaluated.
 *
 * A thread-safe sharded LRU map. Key = 64-bit hash of
 * (evaluation-context salt, pre-repair partition scheme, live hardware
 * gene indices). The payload is the evaluation's full observable
 * effect — the objective value AND the in-situ-repaired partition — so
 * a cache hit is bit-identical to recomputing, including the mutation
 * of genome.part that downstream variation operators see. Below this
 * cache, a computed evaluation reuses block costs through the
 * evaluation engine's per-thread rows (BlockCostRow,
 * search/eval_engine.h); the engine counts their hits and misses here
 * (blockHits/blockMisses).
 *
 * Collision safety: entries store their exact key material (salt,
 * block vector, gene indices) and compare it on lookup, so a 64-bit
 * hash collision degrades to a miss, never to a wrong result. An entry
 * holds its block ids packed (PackedIds), and its repaired ids only
 * when in-situ tuning changed the partition. Eviction order may vary
 * across thread schedules; values may not, so search results stay
 * deterministic for any thread count and for cache on vs. off.
 *
 * The cache persists to disk (core/serialize) so repeated
 * CLI/bench runs warm-start; entries from a different model,
 * accelerator, design space or evaluation option set are fenced off
 * by the salt.
 */

#ifndef COCCO_SEARCH_EVAL_CACHE_H
#define COCCO_SEARCH_EVAL_CACHE_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "partition/partition.h"

namespace cocco {

/**
 * A block-id vector held at the narrowest width that holds every id:
 * one byte per id when all lie in [0, 256), two in [0, 65536), else
 * four, as int (so any id, -1 included, round-trips). It assigns from
 * a std::vector<int> or a braced list and reads back as ints. Equal
 * ids pack to equal widths and bytes. Defined here so the cache-file
 * loader (core/serialize) inlines it: out of line, perfbench's NasNet
 * cache-file load read about a fifth slower (4-vCPU Xeon, g++ 12).
 */
class PackedIds
{
  public:
    PackedIds() = default;
    PackedIds(const std::vector<int> &ids) { pack(ids.data(), ids.size()); }
    PackedIds(std::initializer_list<int> ids)
    {
        pack(ids.begin(), ids.size());
    }

    size_t size() const { return bytes_.size() >> shift_; }
    bool empty() const { return bytes_.empty(); }
    /** Bytes per id: 1, 2 or 4. */
    size_t width() const { return size_t{1} << shift_; }

    int
    operator[](size_t i) const
    {
        return withIdType([&](auto t) { return idAt(t, i); });
    }

    /** Write the ids to @p out[0, size()). */
    void
    unpack(int *out) const
    {
        withIdType([&](auto t) {
            for (size_t i = 0, n = size(); i < n; ++i)
                out[i] = idAt(t, i);
        });
    }

    /** Whether @p ids are these ids, compared in one pass. */
    bool
    operator==(const std::vector<int> &ids) const
    {
        if (ids.size() != size())
            return false;
        return withIdType([&](auto t) {
            bool same = true;
            for (size_t i = 0, n = ids.size(); i < n; ++i)
                same &= idAt(t, i) == ids[i];
            return same;
        });
    }
    bool
    operator==(const PackedIds &o) const
    {
        return shift_ == o.shift_ && bytes_ == o.bytes_;
    }

    /** Iteration by value, as int. */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = int;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = int;

        const_iterator(const PackedIds *ids, size_t i) : ids_(ids), i_(i) {}
        int operator*() const { return (*ids_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator &o) const { return i_ == o.i_; }
        bool operator!=(const const_iterator &o) const { return i_ != o.i_; }

      private:
        const PackedIds *ids_;
        size_t i_;
    };
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    /** fn(T{}) for T, the id type of this width. */
    template <typename Fn>
    auto
    withIdType(Fn fn) const -> decltype(fn(uint8_t{}))
    {
        switch (shift_) {
          case 0:
            return fn(uint8_t{});
          case 1:
            return fn(uint16_t{});
          default:
            return fn(int{});
        }
    }

    /** Id @p i, held as a T. */
    template <typename T>
    int
    idAt(T, size_t i) const
    {
        T v = 0;
        std::memcpy(&v, bytes_.data() + i * sizeof v, sizeof v);
        return static_cast<int>(v);
    }

    void
    pack(const int *ids, size_t n)
    {
        int lo = 0, hi = 0;
        for (size_t i = 0; i < n; ++i) {
            lo = ids[i] < lo ? ids[i] : lo;
            hi = ids[i] > hi ? ids[i] : hi;
        }
        shift_ = lo < 0 || hi > 0xffff ? 2 : hi > 0xff ? 1 : 0;
        bytes_.resize(n << shift_);
        withIdType([&](auto t) {
            for (size_t i = 0; i < n; ++i) {
                auto v = static_cast<decltype(t)>(ids[i]);
                std::memcpy(bytes_.data() + i * sizeof v, &v, sizeof v);
            }
        });
    }

    std::vector<uint8_t> bytes_;
    uint8_t shift_ = 0; ///< log2 of the width
};

/** Cumulative cache counters (monotonic; snapshot via stats()). */
struct EvalCacheStats
{
    // Genome evaluations.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;

    // Block costs asked of the evaluating threads' BlockCostRows,
    // singletons included (EvalCache::addBlockCounts).
    uint64_t blockHits = 0;
    uint64_t blockMisses = 0;

    // Pruning accounting. The cache
    // itself never fills these (stats() reports zeros): the search
    // drivers overlay them from the evaluation engine after taking
    // the per-run delta, so they flow with the rest of the cache
    // report whether or not a cache is in play.
    uint64_t boundRejections = 0;    ///< candidates skipped via bounds
    uint64_t boundSkippedSamples = 0; ///< samples folded without running

    // Snapshot size (not monotonic; a stat delta carries the
    // minuend's — i.e. end-of-run — size unchanged).
    uint64_t entries = 0;

    /** Fraction of genome evaluations served from cache (0 when no
     *  lookups happened). */
    double hitRate() const;

    /** Fraction of block costs served from a row. */
    double blockHitRate() const;

    /** Counter-wise difference (for per-run deltas of a shared,
     *  long-lived cache). The size is copied from *this. */
    EvalCacheStats operator-(const EvalCacheStats &o) const;

    /** Counter-wise sum (folding several runs into one report).
     *  The size takes @p o's, the later snapshot. */
    EvalCacheStats &operator+=(const EvalCacheStats &o);
};

/** Sharded LRU evaluation cache; see file comment. */
class EvalCache
{
  public:
    static constexpr size_t kDefaultCapacity = 1 << 15;
    static constexpr int kDefaultShards = 16;

    /** What a hit on an entry may claim about its repaired partition
     *  (Partition::canonical()). */
    enum class Canon : uint8_t
    {
        Unchecked, ///< from a file: checked on its first hit
        Canonical, ///< inserted flagged, or passed the check
        Plain,     ///< inserted unflagged: hits carry no flag
        Refused,   ///< failed the check: every hit is served as a miss
    };

    /** Borrowed key for allocation-free lookups. */
    struct KeyView
    {
        uint64_t hash = 0;
        uint64_t salt = 0;
        const std::vector<int> &block; ///< pre-repair block vector
        int actIdx = 0;
        int weightIdx = 0;
        int sharedIdx = 0;
    };

    /** One persisted/cached genome evaluation. */
    struct Entry
    {
        Entry() = default;
        /** @p key's material, packed (the payload left empty): what
         *  insert() files an evaluation under. */
        Entry(const KeyView &key)
            : hash(key.hash), salt(key.salt), keyBlock(key.block),
              actIdx(key.actIdx), weightIdx(key.weightIdx),
              sharedIdx(key.sharedIdx)
        {
        }

        uint64_t hash = 0;  ///< full key hash (shard + bucket selector)
        uint64_t salt = 0;  ///< evaluation-context fingerprint

        // Exact key material (compared on lookup).
        PackedIds keyBlock; ///< pre-repair block vector
        int actIdx = 0;     ///< live hardware genes; dead genes
        int weightIdx = 0;  ///< are normalized to 0 by the caller
        int sharedIdx = 0;
        Canon canon = Canon::Unchecked; ///< not persisted (fills padding)

        // Payload.
        /** Post in-situ-tuning blocks, kept only when tuning changed
         *  the partition: empty means "equal to keyBlock" (the cache
         *  file's repaired width 0). insertEntry drops a copy of the key. */
        PackedIds repairedBlock;
        int numBlocks = 0;
        double cost = 0.0;
    };

    /**
     * @param capacity genome-entry capacity; under sharding each of
     *                 @p shards stripes holds max(1, capacity/shards)
     *                 entries, so the bound is approximate unless
     *                 shards == 1.
     * @param shards   lock stripes (1 = strict global LRU, for tests)
     */
    explicit EvalCache(size_t capacity = kDefaultCapacity,
                       int shards = kDefaultShards);

    /**
     * Genome lookup. On a hit, writes the cached repaired partition
     * into @p repaired and the objective into @p cost, refreshes the
     * entry's recency, and returns true. The partition carries the
     * canonical flag when the entry was inserted flagged. An entry
     * loaded from a file is checked on its first hit
     * (Partition::isCanonical over @p graph, the graph the key's
     * partitions belong to): a canonical one is served flagged from
     * then on, any other is served as a miss, so the evaluation that
     * follows replaces it.
     */
    bool lookup(const KeyView &key, const Graph &graph, Partition *repaired,
                double *cost);

    /** Record one evaluation: key -> (repaired partition, cost); the
     *  partition's canonical flag is kept for later hits. A miss packs
     *  its key (Entry(KeyView)) before evaluation tunes the partition
     *  in place. */
    void insert(Entry key, const Partition &repaired, double cost);

    /** Count block-cost row hits and misses (one evaluation's, added
     *  by the engine). */
    void addBlockCounts(uint64_t hits, uint64_t misses);

    /** Current genome-entry count. */
    size_t size() const;

    /** Genome-entry capacity. */
    size_t capacity() const { return capacity_; }

    /** Counter snapshot (entries filled in). */
    EvalCacheStats stats() const;

    /** Drop every entry (counters are untouched). */
    void clear();

    // --- Persistence support (used by core/serialize). ---

    /** Visit every genome entry (shard by shard, least recently used
     *  first, so re-inserting a dump in visit order reproduces the
     *  recency ranking). Do not call cache methods from @p fn (the
     *  shard lock is held). */
    void forEachEntry(const std::function<void(const Entry &)> &fn) const;

    /** Insert a deserialized entry verbatim (keeps entry.hash; a
     *  loader leaves entry.canon Unchecked), but for repaired ids equal
     *  to the key, which it drops. */
    void insertEntry(Entry entry);

  private:
    struct GenomeShard
    {
        mutable std::mutex mu;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
    };

    bool keyMatches(const Entry &e, const KeyView &key) const;

    size_t capacity_;
    size_t perShardCap_;
    int shardCount_;

    std::vector<GenomeShard> shards_;

    // Counters (relaxed atomics; exactness only matters per-run).
    std::atomic<uint64_t> hits_{0}, misses_{0}, insertions_{0},
        evictions_{0};
    std::atomic<uint64_t> blockHits_{0}, blockMisses_{0};
};

} // namespace cocco

#endif // COCCO_SEARCH_EVAL_CACHE_H
