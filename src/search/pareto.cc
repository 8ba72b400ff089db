#include "search/pareto.h"

#include <algorithm>
#include <limits>
#include <map>

#include "util/logging.h"

namespace cocco {

std::vector<ParetoPoint>
paretoFront(const std::vector<SamplePoint> &points)
{
    // Best metric per capacity.
    std::map<int64_t, double> best;
    for (const SamplePoint &pt : points) {
        auto [it, inserted] = best.emplace(pt.bufferBytes, pt.metric);
        if (!inserted && pt.metric < it->second)
            it->second = pt.metric;
    }

    // Sweep ascending capacity, keep strict metric improvements.
    std::vector<ParetoPoint> front;
    double best_metric = std::numeric_limits<double>::infinity();
    for (auto [bytes, metric] : best) {
        if (metric < best_metric) {
            ParetoPoint p;
            p.bufferBytes = bytes;
            p.metric = metric;
            front.push_back(p);
            best_metric = metric;
        }
    }

    // Alpha selection ranges: moving from point i to the larger point
    // i+1 pays (buf_{i+1} - buf_i) capacity for (metric_i -
    // metric_{i+1}) metric, so i+1 wins once
    //   alpha > (buf_{i+1} - buf_i) / (metric_i - metric_{i+1}).
    for (size_t i = 0; i < front.size(); ++i) {
        front[i].alphaLo =
            i == 0 ? 0.0
                   : static_cast<double>(front[i].bufferBytes -
                                         front[i - 1].bufferBytes) /
                         (front[i - 1].metric - front[i].metric);
        front[i].alphaHi =
            i + 1 == front.size()
                ? std::numeric_limits<double>::infinity()
                : static_cast<double>(front[i + 1].bufferBytes -
                                      front[i].bufferBytes) /
                      (front[i].metric - front[i + 1].metric);
    }
    // The alpha thresholds of a non-convex front are not monotone;
    // clamp ranges so selectByAlpha stays well-defined.
    for (size_t i = 1; i < front.size(); ++i)
        front[i].alphaLo = std::max(front[i].alphaLo, front[i - 1].alphaLo);
    return front;
}

const ParetoPoint &
selectByAlpha(const std::vector<ParetoPoint> &front, double alpha)
{
    if (front.empty())
        panic("selectByAlpha on an empty front");
    // Formula 2 minimization over the front (exact, small n).
    size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < front.size(); ++i) {
        double cost = static_cast<double>(front[i].bufferBytes) +
                      alpha * front[i].metric;
        if (cost < best_cost) {
            best_cost = cost;
            best = i;
        }
    }
    return front[best];
}

namespace {

/** a dominates b: no worse in every objective, better in one. */
bool
dominates(const ParetoEntry &a, const ParetoEntry &b)
{
    if (a.bufferBytes > b.bufferBytes || a.energyPj > b.energyPj ||
        a.latencyCycles > b.latencyCycles)
        return false;
    return a.bufferBytes < b.bufferBytes || a.energyPj < b.energyPj ||
           a.latencyCycles < b.latencyCycles;
}

bool
sameObjectives(const ParetoEntry &a, const ParetoEntry &b)
{
    return a.bufferBytes == b.bufferBytes && a.energyPj == b.energyPj &&
           a.latencyCycles == b.latencyCycles;
}

bool
archiveOrder(const ParetoEntry &a, const ParetoEntry &b)
{
    if (a.bufferBytes != b.bufferBytes)
        return a.bufferBytes < b.bufferBytes;
    if (a.energyPj != b.energyPj)
        return a.energyPj < b.energyPj;
    return a.latencyCycles < b.latencyCycles;
}

} // namespace

ParetoArchive::ParetoArchive(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2))
{
}

bool
ParetoArchive::offer(const ParetoEntry &e)
{
    ++offered_;
    for (const ParetoEntry &kept : entries_)
        if (dominates(kept, e) || sameObjectives(kept, e))
            return false;
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const ParetoEntry &kept) {
                                      return dominates(e, kept);
                                  }),
                   entries_.end());
    entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), e,
                                     archiveOrder),
                    e);
    while (entries_.size() > capacity_)
        truncate();
    return true;
}

void
ParetoArchive::merge(const ParetoArchive &o)
{
    for (const ParetoEntry &e : o.entries_)
        offer(e);
    // offer() counted the merged entries; fold in o's rejects too so
    // offered() stays "total points seen".
    offered_ += o.offered_ - static_cast<int64_t>(o.entries_.size());
}

/**
 * Drop the most crowded entry (NSGA-II crowding distance over the
 * three normalized objectives). Extremes per objective get infinite
 * distance and always survive; ties break toward keeping the earlier
 * entry in archive order, so truncation is deterministic.
 */
void
ParetoArchive::truncate()
{
    const size_t n = entries_.size();
    std::vector<double> crowd(n, 0.0);
    constexpr double kInf = std::numeric_limits<double>::infinity();

    auto accumulate = [&](auto value) {
        std::vector<size_t> idx(n);
        for (size_t i = 0; i < n; ++i)
            idx[i] = i;
        std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return value(entries_[a]) < value(entries_[b]);
        });
        double span = value(entries_[idx[n - 1]]) - value(entries_[idx[0]]);
        crowd[idx[0]] = kInf;
        crowd[idx[n - 1]] = kInf;
        if (span <= 0.0)
            return;
        for (size_t i = 1; i + 1 < n; ++i)
            crowd[idx[i]] += (value(entries_[idx[i + 1]]) -
                              value(entries_[idx[i - 1]])) /
                             span;
    };
    accumulate([](const ParetoEntry &e) {
        return static_cast<double>(e.bufferBytes);
    });
    accumulate([](const ParetoEntry &e) { return e.energyPj; });
    accumulate([](const ParetoEntry &e) { return e.latencyCycles; });

    // Deterministic tie-break: latest entry in archive order among the
    // minimum-crowding set.
    double minCrowd = *std::min_element(crowd.begin(), crowd.end());
    size_t victim = 0;
    for (size_t i = 0; i < n; ++i)
        if (crowd[i] == minCrowd)
            victim = i;
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
}

double
ParetoArchive::hypervolume() const
{
    if (entries_.empty())
        return 0.0;

    // Normalize each objective to [0, 1] over the frontier's own span
    // (degenerate span -> 0), reference point at 1.05 per dimension.
    double bufLo = kInfeasiblePenalty, bufHi = -kInfeasiblePenalty;
    double enLo = kInfeasiblePenalty, enHi = -kInfeasiblePenalty;
    double latLo = kInfeasiblePenalty, latHi = -kInfeasiblePenalty;
    for (const ParetoEntry &e : entries_) {
        double buf = static_cast<double>(e.bufferBytes);
        bufLo = std::min(bufLo, buf);
        bufHi = std::max(bufHi, buf);
        enLo = std::min(enLo, e.energyPj);
        enHi = std::max(enHi, e.energyPj);
        latLo = std::min(latLo, e.latencyCycles);
        latHi = std::max(latHi, e.latencyCycles);
    }
    auto norm = [](double v, double lo, double hi) {
        return hi > lo ? (v - lo) / (hi - lo) : 0.0;
    };
    constexpr double kRef = 1.05;

    // Sweep latency ascending; each slab contributes (latency step to
    // the next plane) x (2D buf/energy staircase area of everything
    // seen so far). O(n^2), fine at archive capacities.
    struct P3
    {
        double buf, en, lat;
    };
    std::vector<P3> pts;
    pts.reserve(entries_.size());
    for (const ParetoEntry &e : entries_)
        pts.push_back({norm(static_cast<double>(e.bufferBytes), bufLo, bufHi),
                       norm(e.energyPj, enLo, enHi),
                       norm(e.latencyCycles, latLo, latHi)});
    std::sort(pts.begin(), pts.end(),
              [](const P3 &a, const P3 &b) { return a.lat < b.lat; });

    // 2D staircase: undominated (buf, en) prefix set, kept sorted by
    // buf ascending / en descending.
    std::vector<std::pair<double, double>> stair; // (buf, en)
    auto stairArea = [&]() {
        double area = 0.0, prevEn = kRef;
        for (auto [buf, en] : stair) {
            area += (kRef - buf) * (prevEn - en);
            prevEn = en;
        }
        return area;
    };
    double hv = 0.0;
    for (size_t i = 0; i < pts.size(); ++i) {
        // Insert pts[i] into the staircase unless 2D-dominated.
        bool dominated = false;
        for (auto [buf, en] : stair)
            if (buf <= pts[i].buf && en <= pts[i].en) {
                dominated = true;
                break;
            }
        if (!dominated) {
            stair.erase(std::remove_if(stair.begin(), stair.end(),
                                       [&](const std::pair<double, double> &s) {
                                           return pts[i].buf <= s.first &&
                                                  pts[i].en <= s.second;
                                       }),
                        stair.end());
            stair.insert(std::upper_bound(stair.begin(), stair.end(),
                                          std::make_pair(pts[i].buf,
                                                         pts[i].en)),
                         {pts[i].buf, pts[i].en});
        }
        double nextLat = i + 1 < pts.size() ? pts[i + 1].lat : kRef;
        if (nextLat > pts[i].lat)
            hv += (nextLat - pts[i].lat) * stairArea();
    }
    return hv;
}

} // namespace cocco
