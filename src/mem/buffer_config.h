/**
 * @file
 * On-chip buffer configuration for the DSE (paper Section 5.3):
 * either a separate design (global/activation buffer + weight buffer)
 * or a shared design (one buffer holding both). Candidate capacity
 * grids follow the paper:
 *   global buffer: 128KB .. 2048KB step 64KB
 *   weight buffer: 144KB .. 2304KB step 72KB
 *   shared buffer: 128KB .. 3072KB step 64KB
 */

#ifndef COCCO_MEM_BUFFER_CONFIG_H
#define COCCO_MEM_BUFFER_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace cocco {

/** Buffer organization style. */
enum class BufferStyle
{
    Separate, ///< distinct activation (global) and weight buffers
    Shared,   ///< one buffer shared by activations and weights
};

/** A concrete buffer configuration (sizes in bytes). */
struct BufferConfig
{
    BufferStyle style = BufferStyle::Separate;
    int64_t actBytes = 1024 * 1024;    ///< global buffer (Separate only)
    int64_t weightBytes = 1152 * 1024; ///< weight buffer (Separate only)
    int64_t sharedBytes = 0;           ///< shared buffer (Shared only)

    /** Total buffer capacity (the BUF_SIZE term of Formula 2). */
    int64_t totalBytes() const;

    /** Every field equal. */
    bool
    operator==(const BufferConfig &o) const
    {
        return style == o.style && actBytes == o.actBytes &&
               weightBytes == o.weightBytes && sharedBytes == o.sharedBytes;
    }

    /** "A=704KB W=864KB" / "1344KB" style description. */
    std::string str() const;

    /** The paper's fixed-HW baselines: Small / Medium / Large. */
    static BufferConfig fixedSmall(BufferStyle style);
    static BufferConfig fixedMedium(BufferStyle style);
    static BufferConfig fixedLarge(BufferStyle style);
};

/** The candidate capacity grid for one buffer. */
struct CapacityGrid
{
    int64_t minBytes = 0;
    int64_t stepBytes = 1;
    int count = 1;

    /** Candidate value at grid index @p i (clamped to range). */
    int64_t value(int i) const;

    /** Grid index of the candidate nearest to @p bytes. */
    int indexOf(int64_t bytes) const;
};

/** Paper grid for the global (activation) buffer. */
CapacityGrid globalBufferGrid();

/** Paper grid for the weight buffer. */
CapacityGrid weightBufferGrid();

/** Paper grid for the shared buffer. */
CapacityGrid sharedBufferGrid();

} // namespace cocco

#endif // COCCO_MEM_BUFFER_CONFIG_H
