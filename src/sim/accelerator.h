/**
 * @file
 * The Simba-like accelerator platform of paper Section 5.1.2:
 * a 4x4 PE array per core, each PE an 8x8 MAC array (1024 MACs/cycle
 * = 2.048 TOPS at 1 GHz), a global (activation) buffer and a weight
 * buffer managed by the buffer-region manager, and 16 GB/s of DRAM
 * bandwidth per core. A configuration always describes one core;
 * scale-out over crossbar-connected cores is a deployment's
 * (sim/deployment.h), which inherits the crossbar parameters below
 * when it names no interconnect of its own.
 */

#ifndef COCCO_SIM_ACCELERATOR_H
#define COCCO_SIM_ACCELERATOR_H

#include <cstdint>

#include "mem/buffer_config.h"
#include "mem/energy_model.h"

namespace cocco {

/** One core's platform description, as the cost model reads it. */
struct AcceleratorConfig
{
    // Compute.
    int peRows = 4;        ///< PE array rows
    int peCols = 4;        ///< PE array columns
    int macsPerPe = 64;    ///< 8x8 MAC array per PE
    double clockGhz = 1.0;

    // External memory.
    double dramGBpsPerCore = 16.0;

    // Memory management.
    int maxRegions = 64;   ///< buffer-region manager depth (N)
    int channelAlign = 8;  ///< NWHC8c data layout alignment

    /** When true, the weight buffer must hold the current AND the
     *  next subgraph's weights simultaneously (strict double-buffered
     *  prefetch); when false (default), prefetch overlaps via banking
     *  and only the resident subgraph's weights count. */
    bool doubleBufferWeights = false;

    // Batching, and the crossbar a deployment of these cores inherits.
    int batch = 1;
    double crossbarBytesPerCycle = 256.0; ///< aggregate crossbar bandwidth

    // Technology.
    EnergyModel energy;

    /** MACs retired per cycle per core. */
    int64_t
    macsPerCycle() const
    {
        return static_cast<int64_t>(peRows) * peCols * macsPerPe;
    }

    /** Peak throughput in TOPS (2 ops per MAC). */
    double
    peakTops() const
    {
        return 2.0 * macsPerCycle() * clockGhz / 1e3;
    }

    /** DRAM bytes transferred per cycle per core. */
    double
    dramBytesPerCycle() const
    {
        return dramGBpsPerCore / clockGhz;
    }
};

} // namespace cocco

#endif // COCCO_SIM_ACCELERATOR_H
