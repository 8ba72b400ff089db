/**
 * @file
 * The graph-partition scheme P : V -> N of paper Section 4.1.1.
 *
 * A partition assigns each layer to a subgraph (block). Validity:
 *   - precedence: for every edge (u, v), P(u) <= P(v);
 *   - connectivity: every block is weakly connected in G.
 * Blocks execute in increasing index order.
 *
 * A partition carries a canonical flag: set, it promises that
 * repairStructure would return the partition unchanged, so the search
 * never re-proves it. Only the producers that establish it by
 * construction set it (repairStructure, the mutations' local repair,
 * repairToCapacity, canonicalize on connected blocks, singletons,
 * genome-cache hits on entries the engine inserted flagged) and the
 * checked boundaries (checkpoint genomes through checkCanonical,
 * cache-file entries on their first hit). The flag does not name its
 * graph, so search seeds enter unflagged. Any mutable access to the
 * block vector, and any change of numBlocks, drops it.
 */

#ifndef COCCO_PARTITION_PARTITION_H
#define COCCO_PARTITION_PARTITION_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace cocco {

struct BlockLists;
struct BufferConfig;
class CostModel;
class EvalCache;
class SubgraphCostCache;
struct Partition;
Partition repairStructure(const Graph &g, Partition p);
bool repairLocally(const Graph &g, Partition &p, const BlockLists &before,
                   std::initializer_list<int> touched);
Partition repairToCapacity(const Graph &g, Partition p, CostModel &model,
                           const BufferConfig &buf,
                           SubgraphCostCache *costs);

/**
 * The block-id vector of a Partition: a std::vector<int> to read and
 * write, which also holds the partition's canonical flag. Every
 * mutable access (non-const operator[], iteration, data() and back(),
 * resize, assign, assignment from a vector) drops the flag, so read a
 * partition that should keep it through a const reference. Copying
 * another partition's BlockIds copies its flag, which certifies the
 * ids together with one numBlocks.
 */
class BlockIds
{
  public:
    using value_type = int;
    using size_type = std::size_t;
    using difference_type = std::ptrdiff_t;
    using reference = int &;
    using const_reference = const int &;
    using iterator = std::vector<int>::iterator;
    using const_iterator = std::vector<int>::const_iterator;

    BlockIds &
    operator=(const std::vector<int> &ids)
    {
        ids_ = ids;
        drop();
        return *this;
    }
    BlockIds &
    operator=(std::vector<int> &&ids)
    {
        ids_ = std::move(ids);
        drop();
        return *this;
    }
    BlockIds &
    operator=(std::initializer_list<int> ids)
    {
        ids_ = ids;
        drop();
        return *this;
    }

    // Reads.
    operator const std::vector<int> &() const { return ids_; }
    const std::vector<int> &ids() const { return ids_; }
    size_type size() const { return ids_.size(); }
    bool empty() const { return ids_.empty(); }
    const int &operator[](size_type i) const { return ids_[i]; }
    const_iterator begin() const { return ids_.begin(); }
    const_iterator end() const { return ids_.end(); }
    const int *data() const { return ids_.data(); }
    const int &front() const { return ids_.front(); }
    const int &back() const { return ids_.back(); }

    // Writes: each drops the flag.
    int &
    operator[](size_type i)
    {
        drop();
        return ids_[i];
    }
    iterator
    begin()
    {
        drop();
        return ids_.begin();
    }
    iterator
    end()
    {
        drop();
        return ids_.end();
    }
    int *
    data()
    {
        drop();
        return ids_.data();
    }
    int &
    back()
    {
        drop();
        return ids_.back();
    }
    void
    resize(size_type n, int v = 0)
    {
        drop();
        ids_.resize(n, v);
    }
    void
    assign(size_type n, int v)
    {
        drop();
        ids_.assign(n, v);
    }

    friend bool
    operator==(const BlockIds &a, const BlockIds &b)
    {
        return a.ids_ == b.ids_;
    }
    friend bool
    operator==(const BlockIds &a, const std::vector<int> &b)
    {
        return a.ids_ == b;
    }
    friend bool
    operator==(const std::vector<int> &a, const BlockIds &b)
    {
        return a == b.ids_;
    }

  private:
    friend struct Partition;

    void drop() { certified_ = -1; }

    std::vector<int> ids_;
    /** The numBlocks the canonical flag certifies; -1 when unset. */
    int certified_ = -1;
};

/** A partition of the graph's nodes into ordered subgraphs. */
struct Partition
{
    /** block[v] = index of the subgraph computing node v. */
    BlockIds block;

    /** Number of distinct blocks (valid after canonicalize()). */
    int numBlocks = 0;

    /** Every node in its own block (layer-level execution);
     *  canonical. */
    static Partition singletons(const Graph &g);

    /**
     * Fuse consecutive runs of @p run_length nodes in topological
     * order (the paper's Figure 3 "L = 1/3/5" configurations).
     */
    static Partition fixedRuns(const Graph &g, int run_length);

    /** Node ids of each block, ascending within a block. */
    std::vector<std::vector<NodeId>> blocks() const;

    /** Node ids of block @p b. */
    std::vector<NodeId> blockNodes(int b) const;

    /**
     * Renumber blocks canonically: ids become 0..k-1 in a topological
     * order of the quotient graph (ties broken by smallest node id).
     * Requires an acyclic quotient; panics otherwise (callers must
     * repair first). Ids may be any ints whose span stays within a
     * small multiple of the node count (see QuotientGraph). After
     * canonicalization the precedence property P(u) <= P(v) holds for
     * every edge. Sets the canonical flag when every block is weakly
     * connected (drops it otherwise).
     */
    void canonicalize(const Graph &g);

    /** Full validity: precedence and per-block weak connectivity. */
    bool valid(const Graph &g) const;

    /**
     * Whether repairStructure(g, *this) would return this partition
     * unchanged (block vector and numBlocks). That holds exactly when:
     *  (a) there is one id per node, every id lies in [0, numBlocks)
     *      and every id is used;
     *  (b) block[u] <= block[v] for every edge u -> v;
     *  (c) every block is weakly connected;
     *  (d) the ids are canonicalize()'s Kahn order: with readyAt(b) =
     *      1 + the largest id among b's inter-block predecessors (0 if
     *      none), every block r in [readyAt(b), b) has a smaller
     *      smallest node than b.
     * O(n + E); builds no quotient graph. Never called per sample:
     * the search reads the carried flag (canonical()) instead.
     */
    bool isCanonical(const Graph &g) const;

    /** isCanonical for a block vector and block count. */
    static bool isCanonical(const Graph &g, const std::vector<int> &block,
                            int num_blocks);

    /**
     * The carried canonical flag (see the file comment): when true,
     * isCanonical(g) holds for the graph the partition was built on.
     * False is no claim either way.
     */
    bool
    canonical() const
    {
        return block.certified_ >= 0 && block.certified_ == numBlocks;
    }

    /**
     * The checked boundary for partitions from outside the search (a
     * checkpoint, a cache file): set the flag when isCanonical(g)
     * holds, else drop it. @return the flag.
     */
    bool checkCanonical(const Graph &g);

    /** "{0,1,2}{3,4}..." rendering for debugging. */
    std::string str() const;

    bool operator==(const Partition &o) const { return block == o.block; }

  private:
    // Producers that make a partition canonical by construction.
    friend Partition repairStructure(const Graph &g, Partition p);
    friend bool repairLocally(const Graph &g, Partition &p,
                              const BlockLists &before,
                              std::initializer_list<int> touched);
    friend Partition repairToCapacity(const Graph &g, Partition p,
                                      CostModel &model,
                                      const BufferConfig &buf,
                                      SubgraphCostCache *costs);
    friend class EvalCache;

    void markCanonical() { block.certified_ = numBlocks; }

    /** canonicalize()'s renumbering alone: no connectivity check, no
     *  flag. */
    void renumber(const Graph &g);
};

/**
 * Node lists of every block id of a partition in CSR form: block b's
 * nodes, ascending, are members[start[b] .. start[b + 1]). Ids with no
 * nodes get empty ranges. Two vectors for the whole partition where
 * Partition::blocks() makes one per block; build() reuses their
 * storage.
 */
struct BlockLists
{
    std::vector<int> start;
    std::vector<NodeId> members;

    void build(const Partition &p);

    /** Drop the empty ranges, so ranges are the non-empty ids in id
     *  order (block b is then the b-th non-empty id). */
    void dropEmpty();

    /** Ranges: one past the largest id, or after dropEmpty() the
     *  number of blocks. */
    int count() const { return static_cast<int>(start.size()) - 1; }
    int size(int b) const { return start[b + 1] - start[b]; }
    const NodeId *begin(int b) const { return members.data() + start[b]; }
    const NodeId *end(int b) const { return members.data() + start[b + 1]; }
};

} // namespace cocco

#endif // COCCO_PARTITION_PARTITION_H
