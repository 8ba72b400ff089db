#include "sim/timeline.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace cocco {

double
Timeline::computeBoundFraction() const
{
    if (entries.empty())
        return 0.0;
    int n = 0;
    for (const TimelineEntry &e : entries)
        n += e.computeBound;
    return static_cast<double>(n) / static_cast<double>(entries.size());
}

std::string
Timeline::gantt(int width) const
{
    if (entries.empty() || totalCycles <= 0)
        return "(empty timeline)\n";
    std::string out;
    for (const TimelineEntry &e : entries) {
        int start = static_cast<int>(e.startCycle / totalCycles * width);
        int end = std::max(start + 1,
                           static_cast<int>(e.endCycle / totalCycles *
                                            width));
        end = std::min(end, width);
        std::string bar(static_cast<size_t>(start), ' ');
        bar += std::string(static_cast<size_t>(end - start),
                           e.computeBound ? '#' : '=');
        out += strprintf("sg%-3d |%-*s| %6.0f cyc %s %5.1f GB/s\n",
                         e.subgraph, width, bar.c_str(),
                         e.endCycle - e.startCycle,
                         e.computeBound ? "compute" : "   comm",
                         e.bwGBps);
        // Per-core lanes: each core's busy compute span within the
        // window (the remainder is crossbar rotation / DRAM stall).
        double window = e.endCycle - e.startCycle;
        for (size_t c = 0; c < e.coreBusyCycles.size(); ++c) {
            double busy = std::min(e.coreBusyCycles[c], window);
            int bend = start;
            if (window > 0)
                bend = std::max(
                    busy > 0 ? start + 1 : start,
                    start + static_cast<int>(busy / totalCycles * width));
            bend = std::min(bend, end);
            std::string lane(static_cast<size_t>(start), ' ');
            lane += std::string(static_cast<size_t>(bend - start), '+');
            out += strprintf(" c%-4zu|%-*s| %6.0f cyc busy %5.1f%%\n", c,
                             width, lane.c_str(), e.coreBusyCycles[c],
                             window > 0 ? 100.0 * busy / window : 0.0);
        }
    }
    out += strprintf("total %.0f cycles; '#' compute-bound, '=' "
                     "communication-bound%s\n",
                     totalCycles,
                     cores > 1 ? "; '+' per-core busy compute" : "");
    return out;
}

std::string
ganttLane(const std::string &label, double fraction, int width)
{
    double f = std::min(1.0, std::max(0.0, fraction));
    int fill = static_cast<int>(std::lround(f * width));
    if (f > 0.0 && fill == 0)
        fill = 1; // a non-empty lane is always visible
    std::string lane(static_cast<size_t>(fill), '+');
    return strprintf("%s|%-*s| %5.1f%%\n", label.c_str(), width,
                     lane.c_str(), 100.0 * f);
}

Timeline
buildTimeline(CostModel &model, const Partition &p, const BufferConfig &buf)
{
    Timeline tl;
    tl.cores = model.cores();
    auto blocks = p.blocks();
    double cursor = 0.0;
    for (size_t i = 0; i < blocks.size(); ++i) {
        SubgraphCost c = model.subgraphCost(blocks[i], buf);
        TimelineEntry e;
        e.subgraph = static_cast<int>(i);
        e.nodes = static_cast<int>(blocks[i].size());
        e.startCycle = cursor;
        if (c.feasible) {
            e.computeCycles = c.computeCycles;
            e.commCycles = c.commCycles;
            e.computeBound = c.computeCycles >= c.commCycles;
            e.emaBytes = c.emaBytes;
            const SubgraphProfile &prof = model.profile(blocks[i]);
            e.prefetchBytes = i + 1 < blocks.size()
                                  ? model.profile(blocks[i + 1]).weightBytes
                                  : 0;
            double window = c.latencyCycles;
            if (window > 0) {
                int64_t act_io = (prof.inBytes + prof.outBytes) *
                                 model.accel().batch;
                e.bwGBps = static_cast<double>(act_io + e.prefetchBytes) /
                           window * model.accel().clockGhz;
            }
            if (tl.cores > 1)
                e.coreBusyCycles = model.coreComputeCycles(blocks[i]);
            cursor += c.latencyCycles;
        }
        e.endCycle = cursor;
        tl.entries.push_back(e);
    }
    tl.totalCycles = cursor;
    return tl;
}

} // namespace cocco
