#include "graph/layer.h"

#include "util/logging.h"

namespace cocco {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Input:
        return "input";
      case LayerKind::Conv:
        return "conv";
      case LayerKind::DWConv:
        return "dwconv";
      case LayerKind::Pool:
        return "pool";
      case LayerKind::Eltwise:
        return "eltwise";
      case LayerKind::Concat:
        return "concat";
      case LayerKind::Matmul:
        return "matmul";
    }
    panic("unknown LayerKind %d", static_cast<int>(kind));
}

int64_t
Layer::outBytes() const
{
    return static_cast<int64_t>(outH) * outW * outC;
}

int64_t
Layer::weightBytes(int in_channels) const
{
    switch (kind) {
      case LayerKind::Conv:
        return static_cast<int64_t>(kernel) * kernel * in_channels * outC;
      case LayerKind::DWConv:
        return static_cast<int64_t>(kernel) * kernel * outC;
      default:
        return 0;
    }
}

int64_t
Layer::macs(int in_channels) const
{
    int64_t spatial = static_cast<int64_t>(outH) * outW;
    switch (kind) {
      case LayerKind::Conv:
        return spatial * outC * kernel * kernel * in_channels;
      case LayerKind::DWConv:
      case LayerKind::Pool:
      case LayerKind::Eltwise:
        return spatial * outC * kernel * kernel;
      case LayerKind::Matmul:
        // Two activation operands contribute to in_channels; the
        // contraction dimension is half the sum (exact when both
        // operands have the same channel width, e.g. Q and K).
        return spatial * outC * (in_channels / 2);
      case LayerKind::Input:
      case LayerKind::Concat:
        return 0;
    }
    panic("unknown LayerKind %d", static_cast<int>(kind));
}

bool
Layer::hasWeights() const
{
    return kind == LayerKind::Conv || kind == LayerKind::DWConv;
}

} // namespace cocco
