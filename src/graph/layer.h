/**
 * @file
 * Layer (node) description for the DNN computation graph.
 *
 * Following the paper's methodology (Section 5.1.1): FC layers are
 * modelled as 1x1 convolutions, pooling and element-wise layers as
 * depth-wise convolutions without weights, and scalar ops (activation
 * functions, layernorm scaling) are hidden in the PE pipeline.
 *
 * Every node produces exactly one output tensor of shape
 * (height, width, channels); activations are 8-bit (1 byte/element)
 * as in the Simba-like platform the paper evaluates.
 */

#ifndef COCCO_GRAPH_LAYER_H
#define COCCO_GRAPH_LAYER_H

#include <cstdint>
#include <string>

namespace cocco {

/** The operator categories the cost model distinguishes. */
enum class LayerKind
{
    Input,    ///< graph input placeholder (no compute, no weights)
    Conv,     ///< dense 2-D convolution (includes FC as 1x1)
    DWConv,   ///< depth-wise convolution (with weights)
    Pool,     ///< pooling: depth-wise, no weights
    Eltwise,  ///< element-wise add/mul: kernel 1, stride 1, no weights
    Concat,   ///< channel concatenation: no compute, no weights
    Matmul,   ///< activation-activation matmul (attention); no weights
};

/** @return a short stable name for @p kind ("conv", "pool", ...). */
const char *layerKindName(LayerKind kind);

/**
 * One layer of the network: the vertex payload of the computation
 * graph. Spatial kernel/stride are square (F x F / s); the tile-flow
 * derivation treats height and width independently with the same F, s.
 */
struct Layer
{
    std::string name;          ///< unique human-readable name
    LayerKind kind = LayerKind::Conv;

    int outH = 1;              ///< output tensor height
    int outW = 1;              ///< output tensor width
    int outC = 1;              ///< output tensor channels

    int kernel = 1;            ///< spatial kernel size F
    int stride = 1;            ///< spatial stride s

    /** @return output activation tensor size in bytes (1 B/element). */
    int64_t outBytes() const;

    /**
     * Weight bytes of this layer given the input channel count.
     * Conv: F*F*Cin*Cout; DWConv: F*F*C; others: 0.
     */
    int64_t weightBytes(int in_channels) const;

    /**
     * Multiply-accumulate count given the total input channels.
     * Conv: H*W*Cout*F*F*Cin; DWConv/Pool/Eltwise: H*W*C*F*F;
     * Matmul: H*W*C*Cin; Input/Concat: 0.
     */
    int64_t macs(int in_channels) const;

    /** @return true for kinds that carry trained weights. */
    bool hasWeights() const;
};

} // namespace cocco

#endif // COCCO_GRAPH_LAYER_H
