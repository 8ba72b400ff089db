#include "search/eval_cache.h"

#include <algorithm>

namespace cocco {

namespace {

/** Sum of hits and misses, guarding the empty-cache division. */
double
rate(uint64_t hit, uint64_t miss)
{
    uint64_t total = hit + miss;
    return total == 0 ? 0.0
                      : static_cast<double>(hit) / static_cast<double>(total);
}

} // namespace

double
EvalCacheStats::hitRate() const
{
    return rate(hits, misses);
}

double
EvalCacheStats::blockHitRate() const
{
    return rate(blockHits, blockMisses);
}

EvalCacheStats
EvalCacheStats::operator-(const EvalCacheStats &o) const
{
    EvalCacheStats d = *this;
    d.hits -= o.hits;
    d.misses -= o.misses;
    d.insertions -= o.insertions;
    d.evictions -= o.evictions;
    d.blockHits -= o.blockHits;
    d.blockMisses -= o.blockMisses;
    d.boundRejections -= o.boundRejections;
    d.boundSkippedSamples -= o.boundSkippedSamples;
    return d;
}

EvalCacheStats &
EvalCacheStats::operator+=(const EvalCacheStats &o)
{
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    blockHits += o.blockHits;
    blockMisses += o.blockMisses;
    boundRejections += o.boundRejections;
    boundSkippedSamples += o.boundSkippedSamples;
    entries = o.entries;
    return *this;
}

EvalCache::EvalCache(size_t capacity, int shards)
    : capacity_(std::max<size_t>(capacity, 1)),
      shardCount_(std::clamp(shards, 1, 256)),
      shards_(static_cast<size_t>(shardCount_))
{
    perShardCap_ = std::max<size_t>(
        1, capacity_ / static_cast<size_t>(shardCount_));
}

bool
EvalCache::keyMatches(const Entry &e, const KeyView &key) const
{
    return e.salt == key.salt && e.actIdx == key.actIdx &&
           e.weightIdx == key.weightIdx && e.sharedIdx == key.sharedIdx &&
           e.keyBlock == key.block;
}

bool
EvalCache::lookup(const KeyView &key, const Graph &graph, Partition *repaired,
                  double *cost)
{
    GenomeShard &shard =
        shards_[key.hash % static_cast<uint64_t>(shardCount_)];
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(key.hash);
    if (it == shard.map.end() || !keyMatches(*it->second, key)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    Entry &e = *it->second;
    const PackedIds &ids =
        e.repairedBlock.empty() ? e.keyBlock : e.repairedBlock;
    if (e.canon == Canon::Unchecked) {
        std::vector<int> block(ids.size());
        ids.unpack(block.data());
        e.canon = Partition::isCanonical(graph, block, e.numBlocks)
                      ? Canon::Canonical
                      : Canon::Refused;
    }
    if (e.canon == Canon::Refused) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    repaired->block.resize(ids.size());
    ids.unpack(repaired->block.data());
    repaired->numBlocks = e.numBlocks;
    if (e.canon == Canon::Canonical)
        repaired->markCanonical();
    *cost = e.cost;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
EvalCache::insert(Entry key, const Partition &repaired, double cost)
{
    if (!(key.keyBlock == repaired.block.ids()))
        key.repairedBlock = repaired.block.ids();
    key.numBlocks = repaired.numBlocks;
    key.cost = cost;
    key.canon = repaired.canonical() ? Canon::Canonical : Canon::Plain;
    insertEntry(std::move(key));
}

void
EvalCache::insertEntry(Entry entry)
{
    if (!entry.repairedBlock.empty() && entry.repairedBlock == entry.keyBlock)
        entry.repairedBlock = PackedIds();
    GenomeShard &shard =
        shards_[entry.hash % static_cast<uint64_t>(shardCount_)];
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(entry.hash);
    if (it != shard.map.end()) {
        // Same hash seen again: either a concurrent duplicate insert
        // (identical value) or a 64-bit collision (the newcomer wins
        // the slot; the loser degrades to misses).
        *it->second = std::move(entry);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    shard.lru.push_front(std::move(entry));
    shard.map.emplace(shard.lru.front().hash, shard.lru.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    while (shard.lru.size() > perShardCap_) {
        shard.map.erase(shard.lru.back().hash);
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
EvalCache::addBlockCounts(uint64_t hits, uint64_t misses)
{
    blockHits_.fetch_add(hits, std::memory_order_relaxed);
    blockMisses_.fetch_add(misses, std::memory_order_relaxed);
}

size_t
EvalCache::size() const
{
    size_t n = 0;
    for (const GenomeShard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mu);
        n += shard.lru.size();
    }
    return n;
}

EvalCacheStats
EvalCache::stats() const
{
    EvalCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.blockHits = blockHits_.load(std::memory_order_relaxed);
    s.blockMisses = blockMisses_.load(std::memory_order_relaxed);
    s.entries = size();
    return s;
}

void
EvalCache::clear()
{
    for (GenomeShard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mu);
        shard.lru.clear();
        shard.map.clear();
    }
}

void
EvalCache::forEachEntry(const std::function<void(const Entry &)> &fn) const
{
    for (const GenomeShard &shard : shards_) {
        std::lock_guard<std::mutex> lk(shard.mu);
        // Least recently used first, so re-inserting a dump in order
        // reproduces the recency ranking.
        for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it)
            fn(*it);
    }
}

} // namespace cocco
