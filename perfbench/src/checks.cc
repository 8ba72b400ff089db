#include "checks.h"

#include "util/logging.h"

namespace perfbench {

SearchOutcome
outcomeOf(const cocco::CoccoResult &r)
{
    return {r.objective, r.partition, r.buffer};
}

SearchOutcome
outcomeOf(const cocco::SearchResult &r)
{
    return {r.bestCost, r.best.part, r.bestBuffer};
}

std::vector<std::string>
checkOutcome(const cocco::Graph &g, const cocco::AcceleratorConfig &accel,
             const cocco::SearchSpec &spec, const SearchOutcome &o)
{
    if (!o.partition.valid(g))
        return {"returned partition is not valid"};
    std::vector<std::string> problems;
    cocco::CostModel fresh(g, accel);
    for (const std::vector<cocco::NodeId> &block : o.partition.blocks()) {
        if (block.size() > 1 && !fresh.fits(block, o.buffer)) {
            problems.push_back(cocco::strprintf(
                "a %zu-node block does not fit the returned buffer",
                block.size()));
            break;
        }
    }
    cocco::GraphCost gc = fresh.partitionCost(o.partition, o.buffer);
    const cocco::EvalOptions &e = spec.eval;
    double recost = e.coExplore ? cocco::objective(gc, o.buffer, e.alpha,
                                                   e.metric)
                    : gc.feasible ? gc.metricValue(e.metric)
                                  : cocco::kInfeasiblePenalty;
    if (recost != o.objective)
        problems.push_back(cocco::strprintf(
            "re-costing gives %.17g, the job reported %.17g", recost,
            o.objective));
    return problems;
}

std::string
compareOutcomes(const SearchOutcome &a, const SearchOutcome &b)
{
    if (a.objective != b.objective)
        return cocco::strprintf("objective %.17g vs %.17g", a.objective,
                                b.objective);
    if (!(a.partition == b.partition))
        return "partitions differ";
    const cocco::BufferConfig &x = a.buffer, &y = b.buffer;
    if (x.style != y.style || x.actBytes != y.actBytes ||
        x.weightBytes != y.weightBytes || x.sharedBytes != y.sharedBytes)
        return "buffers differ";
    return "";
}

} // namespace perfbench
