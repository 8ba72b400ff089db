/**
 * @file
 * Multi-core scale-out model (paper Section 5.4.2): cores share the
 * weights of a subgraph over a crossbar, each core holding 1/n of the
 * weights at a time and rotating shards (as in Tangram's BSD or
 * NN-Baton's data rotation). Boundary input activations are broadcast
 * to all cores.
 *
 * The crossbar adds energy (per byte-hop) and a serialization term to
 * latency; both vanish for a single core. A platform describes one
 * core; the core count and the interconnect come from a deployment
 * (sim/deployment.h), whose cost model hands them to these helpers.
 */

#ifndef COCCO_SIM_MULTICORE_H
#define COCCO_SIM_MULTICORE_H

#include "sim/accelerator.h"

namespace cocco {

struct SubgraphProfile;

/**
 * The inter-core interconnect (the weight-rotation crossbar). Both
 * knobs default to "inherit": a deployment that does not mention the
 * interconnect models exactly the core platform's built-in crossbar
 * (crossbarBytesPerCycle / energy.crossbarPjPerByte) — including a
 * platform file that customized those values. resolveInterconnect()
 * materializes the inherited values against core 0.
 */
struct InterconnectConfig
{
    double bytesPerCycle = 0.0; ///< aggregate crossbar bandwidth
                                ///< (<= 0: inherit the core platform's)
    double pjPerByteHop = -1.0; ///< energy per byte per hop
                                ///< (< 0: inherit the core platform's)
};

/** @p ic with unset knobs filled in from @p core0's built-in
 *  crossbar parameters. */
InterconnectConfig resolveInterconnect(const InterconnectConfig &ic,
                                       const AcceleratorConfig &core0);

/**
 * Bytes crossing the crossbar for one execution of a subgraph on
 * @p cores cores of @p accel: weight shards visit the other (n-1)
 * cores and boundary inputs are broadcast to the other (n-1) cores.
 * Zero for n = 1.
 */
int64_t crossbarBytes(const SubgraphProfile &prof,
                      const AcceleratorConfig &accel, int cores);

/** Crossbar energy (pJ) for one execution of a subgraph over the
 *  resolved interconnect @p ic. */
double crossbarEnergyPj(const SubgraphProfile &prof,
                        const AcceleratorConfig &accel, int cores,
                        const InterconnectConfig &ic);

/**
 * Crossbar serialization latency (cycles) for one execution; models
 * the rotation traffic through the resolved interconnect's shared
 * bandwidth.
 */
double crossbarCycles(const SubgraphProfile &prof,
                      const AcceleratorConfig &accel, int cores,
                      const InterconnectConfig &ic);

} // namespace cocco

#endif // COCCO_SIM_MULTICORE_H
