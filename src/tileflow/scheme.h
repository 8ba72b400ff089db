/**
 * @file
 * The consumption-centric subgraph execution scheme of paper
 * Section 3.1: a three-stage flow that derives, for every node of a
 * subgraph, the update offset Delta, the resident tile size x, and
 * the per-elementary-operation update count upd_num.
 *
 *  stage-1  output nodes get a tile size (Delta = x = t) chosen by the
 *           single-layer mapper;
 *  stage-2  reverse-topological backward derivation:
 *             Delta(u) = lcm_{v in children(u)} { Delta(v) * s(v) }
 *             x(u)     = max_v f_v(Delta(u) / s(v)),
 *             f_v(t)   = F(v) + (t - 1) * s(v)
 *  stage-3  minimal co-prime solution of
 *             upd_num(v) * Delta(v) * s(v) = upd_num(u) * Delta(u)
 *           for every in-subgraph edge (u, v).
 *
 * Height and width are derived independently (same square F, s);
 * upd_num is reported for the height dimension, matching the paper's
 * 1-D presentation.
 */

#ifndef COCCO_TILEFLOW_SCHEME_H
#define COCCO_TILEFLOW_SCHEME_H

#include <vector>

#include "graph/graph.h"
#include "util/epoch_set.h"
#include "util/math_util.h"

namespace cocco {

/** Per-node result of the tile-flow derivation. */
struct NodeScheme
{
    NodeId node = -1;      ///< graph node id
    bool external = false; ///< boundary input tensor (loaded from DRAM)
    bool is_output = false; ///< no consumer inside the subgraph

    int deltaH = 1;        ///< update offset, height dim
    int deltaW = 1;        ///< update offset, width dim
    int xH = 1;            ///< resident tile size, height dim
    int xW = 1;            ///< resident tile size, width dim
    int64_t updNum = 1;    ///< memory updates per elementary operation

    int64_t mainBytes = 0; ///< MAIN region size (resident tile)
    int64_t sideBytes = 0; ///< SIDE region size (horizontal overlap)
};

/** Derived execution scheme of one subgraph. */
struct ExecutionScheme
{
    /** Entries for boundary inputs first, then subgraph nodes, each in
     *  topological order. */
    std::vector<NodeScheme> nodes;

    int64_t actFootprintBytes = 0; ///< sum of MAIN + SIDE over all nodes
    int numRegions = 0;            ///< buffer regions required
    int outTile = 1;               ///< stage-1 output tile size used
    bool updConsistent = true;     ///< stage-3 system had a solution

    /** True when the derivation stopped early because the running
     *  footprint reached the caller's abort threshold. An aborted
     *  scheme carries only the partial actFootprintBytes (already >=
     *  the threshold) — nodes/regions/upd are not populated. */
    bool aborted = false;

    /** Entry for graph node @p v, or nullptr if absent. */
    const NodeScheme *find(NodeId v) const;
};

/** What stages 1-2 and the MAIN/SIDE pass yield for one output tile:
 *  all the cost model reads of a scheme. */
struct FlowFootprint
{
    int64_t actFootprintBytes = 0; ///< MAIN + SIDE total (see aborted)
    int numRegions = 0;            ///< buffer regions required
    int outTile = 1;               ///< stage-1 output tile size used

    /** The running footprint reached the abort threshold: only
     *  outTile and the partial actFootprintBytes (already >= the
     *  threshold) are meaningful. */
    bool aborted = false;
};

/**
 * The derivation core over flat arrays indexed by position in the
 * subgraph's ascending extended node list (boundary inputs and
 * members). Membership is an epoch stamp, so nothing is cleared per
 * call, and indexing a subgraph allocates nothing once the arrays have
 * grown to the largest one seen.
 *
 * index() once per subgraph, then derive() once per candidate tile;
 * solve() completes the last non-aborted derive() into a full
 * ExecutionScheme. Use the calling thread's instance (local()) and
 * never re-enter it: a caller holding an indexed subgraph must not
 * call anything that indexes another one on the same thread
 * (deriveConsumptionScheme, bestFootprint, bestScheme all do). Stamps
 * stay valid across graphs of any size.
 */
class TileFlow
{
  public:
    /** The calling thread's instance. */
    static TileFlow &local();

    /** Index subgraph @p nodes of @p g (any order, distinct, non-empty;
     *  panics otherwise). @p g must outlive the derive/solve calls. */
    void index(const Graph &g, const std::vector<NodeId> &nodes);

    /**
     * Stages 1-2 (Delta, x, clipping) and the MAIN/SIDE region pass of
     * the indexed subgraph for output tile @p out_tile, sweeping
     * consumers before producers. With @p abort_above >= 0 the sweep
     * stops as soon as the running footprint reaches it (see
     * deriveConsumptionScheme).
     */
    FlowFootprint derive(int out_tile, int64_t abort_above = -1);

    /** Stage 3 and the per-node list of the last derive(), which must
     *  not have aborted, into @p scheme. */
    void solve(ExecutionScheme *scheme);

  private:
    /** One extended node: its layer terms and its derived values. */
    struct Slot
    {
        int outH = 0, outW = 0, outC = 0, kernel = 0, stride = 0;
        bool member = false; ///< in the subgraph proper, not an input
        int overlap = 0;     ///< max (F - s) over in-subgraph consumers
        int deltaH = 0, deltaW = 0, xH = 0, xW = 0;
        int64_t mainBytes = 0, sideBytes = 0;
        int64_t updNum = 1;
    };

    const Graph *g_ = nullptr;
    EpochSet member_;             ///< the subgraph proper
    std::vector<int> pos_;        ///< node id -> position (extended only)
    std::vector<NodeId> nodes_;   ///< position -> node id, ascending
    std::vector<Slot> slots_;     ///< per position
    std::vector<int> childStart_; ///< CSR offsets into child_
    std::vector<int> child_;      ///< positions of in-subgraph consumers
    std::vector<Rational> rate_;  ///< stage 3: R(u), then R(u) / Delta(u)
    std::vector<char> rated_;     ///< stage 3: R(u) assigned
    std::vector<int> stack_;      ///< stage 3: traversal stack
};

/**
 * Run the consumption-centric flow on subgraph @p nodes of @p g with
 * stage-1 output tile size @p out_tile (both dims).
 *
 * @param g        the computation graph
 * @param nodes    the subgraph's node ids (any order; must be distinct)
 * @param out_tile stage-1 tile size for output nodes (>= 1)
 * @param abort_above when >= 0, stop as soon as the running activation
 *                 footprint (accumulated during the stage-2 sweep)
 *                 reaches this value and return a scheme with
 *                 `aborted` set. The footprint is a sum of
 *                 non-negative per-node terms, so a partial sum at or
 *                 above the threshold proves the full footprint is
 *                 too: callers comparing candidate tiles can skip the
 *                 stage-3 solve and region assembly for candidates
 *                 that cannot beat their incumbent. -1 = never abort.
 */
ExecutionScheme deriveConsumptionScheme(const Graph &g,
                                        const std::vector<NodeId> &nodes,
                                        int out_tile,
                                        int64_t abort_above = -1);

} // namespace cocco

#endif // COCCO_TILEFLOW_SCHEME_H
