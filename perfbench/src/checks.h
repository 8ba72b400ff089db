/**
 * @file
 * Correctness checks on what a search job returned. Each failed check
 * is one problem string; a job with any problem counts as failed.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <string>
#include <vector>

#include "core/cocco.h"

namespace perfbench {

/** The observable result of a search job. */
struct SearchOutcome
{
    double objective = 0.0;
    cocco::Partition partition;
    cocco::BufferConfig buffer;
};

SearchOutcome outcomeOf(const cocco::CoccoResult &r);
SearchOutcome outcomeOf(const cocco::SearchResult &r);

/**
 * Check a job's outcome against its spec on a fresh cost model: the
 * partition is valid, every multi-node block fits the returned buffer,
 * and re-costing (partition, buffer) reproduces the objective exactly.
 */
std::vector<std::string> checkOutcome(const cocco::Graph &g,
                                      const cocco::AcceleratorConfig &accel,
                                      const cocco::SearchSpec &spec,
                                      const SearchOutcome &o);

/** "" when @p a and @p b are identical bit for bit, else what differs. */
std::string compareOutcomes(const SearchOutcome &a, const SearchOutcome &b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
