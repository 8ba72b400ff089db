#include "tileflow/scheme.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace cocco {

namespace {

/** f_v(t) = F(v) + (t - 1) * s(v): input tile needed for t outputs. */
int64_t
inputTileFor(int kernel, int stride, int64_t t)
{
    return kernel + (t - 1) * static_cast<int64_t>(stride);
}

} // namespace

const NodeScheme *
ExecutionScheme::find(NodeId v) const
{
    for (const auto &ns : nodes)
        if (ns.node == v)
            return &ns;
    return nullptr;
}

TileFlow &
TileFlow::local()
{
    thread_local TileFlow flow;
    return flow;
}

void
TileFlow::index(const Graph &g, const std::vector<NodeId> &nodes)
{
    if (nodes.empty())
        panic("tile-flow derivation on an empty subgraph");
    g_ = &g;
    member_.clear(g.size());
    if (pos_.size() < static_cast<size_t>(g.size()))
        pos_.resize(g.size());

    // Extended set: boundary input tensors participate in the flow as
    // data sources with their own MAIN/SIDE regions.
    nodes_.clear();
    for (NodeId v : nodes) {
        if (!member_.insert(v))
            panic("duplicate node ids in subgraph");
        nodes_.push_back(v);
    }
    for (NodeId v : nodes)
        for (NodeId u : g.preds(v))
            if (!member_.contains(u))
                nodes_.push_back(u);
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
    const int n = static_cast<int>(nodes_.size());
    for (int i = 0; i < n; ++i)
        pos_[nodes_[i]] = i;

    // Per position: the layer terms, and the in-subgraph consumers
    // (members of the subgraph proper) in successor order.
    slots_.resize(n);
    childStart_.resize(n + 1);
    child_.clear();
    for (int i = 0; i < n; ++i) {
        const Layer &l = g.layer(nodes_[i]);
        Slot &s = slots_[i];
        s.outH = l.outH;
        s.outW = l.outW;
        s.outC = l.outC;
        s.kernel = l.kernel;
        s.stride = l.stride;
        s.member = member_.contains(nodes_[i]);
        s.overlap = 0;
        childStart_[i] = static_cast<int>(child_.size());
        for (NodeId w : g.succs(nodes_[i]))
            if (member_.contains(w)) {
                const Layer &lw = g.layer(w);
                s.overlap = std::max(s.overlap, lw.kernel - lw.stride);
                child_.push_back(pos_[w]);
            }
    }
    childStart_[n] = static_cast<int>(child_.size());
}

FlowFootprint
TileFlow::derive(int out_tile, int64_t abort_above)
{
    if (out_tile < 1)
        panic("out_tile must be >= 1, got %d", out_tile);
    FlowFootprint f;
    f.outTile = out_tile;

    // Node ids are topologically ordered, so a descending sweep over
    // the ascending positions visits consumers before producers.
    for (int i = static_cast<int>(slots_.size()) - 1; i >= 0; --i) {
        Slot &s = slots_[i];
        const int *ch = child_.data() + childStart_[i];
        const int *ch_end = child_.data() + childStart_[i + 1];
        if (ch == ch_end) {
            // Stage-1: output node, Delta = x = out_tile (clipped).
            s.deltaH = std::min(out_tile, s.outH);
            s.deltaW = std::min(out_tile, s.outW);
            s.xH = s.deltaH;
            s.xW = s.deltaW;
        } else {
            // Stage-2: Delta(u) = lcm_v Delta(v) s(v),
            //          x(u) = max_v f_v(Delta(u) / s(v)).
            int64_t dh = 1, dw = 1;
            for (const int *c = ch; c != ch_end; ++c) {
                const Slot &cs = slots_[*c];
                dh = lcm64(dh, static_cast<int64_t>(cs.deltaH) * cs.stride);
                dw = lcm64(dw, static_cast<int64_t>(cs.deltaW) * cs.stride);
            }
            int64_t xh = 1, xw = 1;
            for (const int *c = ch; c != ch_end; ++c) {
                const Slot &cs = slots_[*c];
                xh = std::max(
                    xh, inputTileFor(cs.kernel, cs.stride, dh / cs.stride));
                xw = std::max(
                    xw, inputTileFor(cs.kernel, cs.stride, dw / cs.stride));
            }
            // Clip to the tensor extent: a tile can never exceed the
            // tensor, and once the whole tensor is resident no halo
            // bookkeeping is needed.
            s.deltaH = static_cast<int>(std::min<int64_t>(dh, s.outH));
            s.deltaW = static_cast<int>(std::min<int64_t>(dw, s.outW));
            s.xH = static_cast<int>(std::min<int64_t>(xh, s.outH));
            s.xW = static_cast<int>(std::min<int64_t>(xw, s.outW));
        }

        // Memory regions (Section 3.2). MAIN holds the resident tile
        // xH x xW x C. SIDE reserves the horizontal overlap (F - s rows
        // of the part of the feature map outside the current tile) for
        // nodes whose in-subgraph consumers have kernel > stride.
        // Whole-tensor-resident nodes need no SIDE.
        s.mainBytes = static_cast<int64_t>(s.xH) * s.xW * s.outC;
        bool whole_resident = s.xH >= s.outH && s.xW >= s.outW;
        s.sideBytes = 0;
        if (s.overlap > 0 && !whole_resident && s.outW > s.xW)
            s.sideBytes = static_cast<int64_t>(s.overlap) *
                          (s.outW - s.xW) * s.outC;
        f.actFootprintBytes += s.mainBytes + s.sideBytes;
        f.numRegions += s.sideBytes > 0 ? 2 : 1;

        // The footprint is a sum of non-negative terms: once the
        // partial sum reaches the threshold the full one must too.
        if (abort_above >= 0 && f.actFootprintBytes >= abort_above) {
            f.aborted = true;
            return f;
        }
    }
    return f;
}

void
TileFlow::solve(ExecutionScheme *scheme)
{
    // --- Stage 3: minimal co-prime upd_num assignment. ---
    // Constraint per in-subgraph edge (u, v):
    //     upd(v) * Delta(v) * s(v) = upd(u) * Delta(u)
    // Define R(u) = upd(u) * Delta(u); then R(u) = R(v) * s(v) for
    // every child v. Solve by depth-first traversal of the undirected
    // constraint graph with exact rationals, then scale to the least
    // integer solution. (Height-dimension Deltas; the paper presents
    // the 1-D case.)
    const int n = static_cast<int>(slots_.size());
    rate_.assign(n, Rational(1));
    rated_.assign(n, 0);
    bool consistent = true;
    auto visit = [&](int w, const Rational &want) {
        if (!rated_[w]) {
            rated_[w] = 1;
            rate_[w] = want;
            stack_.push_back(w);
        } else if (rate_[w] != want) {
            consistent = false;
        }
    };
    for (int seed = 0; seed < n; ++seed) {
        if (rated_[seed])
            continue;
        rated_[seed] = 1;
        stack_.assign(1, seed);
        while (!stack_.empty()) {
            int u = stack_.back();
            stack_.pop_back();
            Rational ru = rate_[u];
            // Children constraints: R(child) = R(u) / s(child).
            for (int e = childStart_[u]; e < childStart_[u + 1]; ++e)
                visit(child_[e], ru / Rational(slots_[child_[e]].stride));
            // Parent constraints: R(parent) = R(u) * s(u); only edges
            // whose consumer u is inside the subgraph participate, and
            // all of its producers are extended nodes.
            if (slots_[u].member) {
                Rational want = ru * Rational(slots_[u].stride);
                for (NodeId p : g_->preds(nodes_[u]))
                    visit(pos_[p], want);
            }
        }
    }
    scheme->updConsistent = consistent;

    // upd(u) = lambda * R(u) / Delta(u); choose the least lambda
    // making every upd integral, then strip the common factor.
    // Unsolvable systems keep upd = 1.
    for (Slot &s : slots_)
        s.updNum = 1;
    if (consistent) {
        int64_t lambda = 1;
        for (int i = 0; i < n; ++i) {
            rate_[i] = rate_[i] / Rational(slots_[i].deltaH);
            lambda = lcm64(lambda, rate_[i].den());
        }
        int64_t common = 0;
        for (int i = 0; i < n; ++i) {
            slots_[i].updNum = rate_[i].num() * (lambda / rate_[i].den());
            common = gcd64(common, std::llabs(slots_[i].updNum));
        }
        if (common > 1)
            for (Slot &s : slots_)
                s.updNum /= common;
    }

    // Boundary inputs first, then members, each ascending by id.
    scheme->nodes.clear();
    scheme->nodes.reserve(n);
    for (bool members : {false, true})
        for (int i = 0; i < n; ++i) {
            const Slot &s = slots_[i];
            if (s.member != members)
                continue;
            NodeScheme ns;
            ns.node = nodes_[i];
            ns.external = !s.member;
            ns.is_output = childStart_[i] == childStart_[i + 1];
            ns.deltaH = s.deltaH;
            ns.deltaW = s.deltaW;
            ns.xH = s.xH;
            ns.xW = s.xW;
            ns.updNum = s.updNum;
            ns.mainBytes = s.mainBytes;
            ns.sideBytes = s.sideBytes;
            scheme->nodes.push_back(ns);
        }
}

ExecutionScheme
deriveConsumptionScheme(const Graph &g, const std::vector<NodeId> &nodes,
                        int out_tile, int64_t abort_above)
{
    TileFlow &flow = TileFlow::local();
    flow.index(g, nodes);
    FlowFootprint f = flow.derive(out_tile, abort_above);

    ExecutionScheme scheme;
    scheme.outTile = f.outTile;
    scheme.actFootprintBytes = f.actFootprintBytes;
    scheme.aborted = f.aborted;
    if (f.aborted)
        return scheme;
    scheme.numRegions = f.numRegions;
    flow.solve(&scheme);
    return scheme;
}

} // namespace cocco
