#include "sim/multicore.h"

#include "sim/cost_model.h"

namespace cocco {

InterconnectConfig
resolveInterconnect(const InterconnectConfig &ic,
                    const AcceleratorConfig &core0)
{
    InterconnectConfig out = ic;
    if (out.bytesPerCycle <= 0.0)
        out.bytesPerCycle = core0.crossbarBytesPerCycle;
    if (out.pjPerByteHop < 0.0)
        out.pjPerByteHop = core0.energy.crossbarPjPerByte;
    return out;
}

int64_t
crossbarBytes(const SubgraphProfile &prof, const AcceleratorConfig &accel,
              int cores)
{
    if (cores <= 1)
        return 0;
    int64_t hops = cores - 1;
    // Weight shards rotate once per subgraph execution (amortized over
    // the batch); boundary inputs are broadcast per sample.
    return (prof.weightBytes + prof.inBytes * accel.batch) * hops;
}

double
crossbarEnergyPj(const SubgraphProfile &prof, const AcceleratorConfig &accel,
                 int cores, const InterconnectConfig &ic)
{
    return ic.pjPerByteHop *
           static_cast<double>(crossbarBytes(prof, accel, cores));
}

double
crossbarCycles(const SubgraphProfile &prof, const AcceleratorConfig &accel,
               int cores, const InterconnectConfig &ic)
{
    if (cores <= 1)
        return 0.0;
    return static_cast<double>(crossbarBytes(prof, accel, cores)) /
           ic.bytesPerCycle;
}

} // namespace cocco
