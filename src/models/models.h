/**
 * @file
 * The workload frontend: a parameterized, self-registering model zoo.
 *
 * Builders for the networks evaluated in the paper (Section 5.1.1) —
 * plain (VGG16), multi-branch (ResNet50/152, GoogleNet, Transformer,
 * GPT), and irregular (RandWire-A/B, NasNet) — plus MobileNetV2 and a
 * FSRCNN-style super-resolution network. Every builder reads a
 * ModelParams block whose defaults reproduce the paper configuration
 * bit-identically, so `buildModel(name)` and `buildModel(name, {})`
 * are the frozen paper workloads and non-default parameters open the
 * same topologies at other scales.
 *
 * Conventions (as in the paper): FC layers become 1x1 convolutions;
 * pooling and element-wise layers are analysed as depth-wise
 * convolutions without weights; scalar ops are hidden in the pipeline
 * and not represented.
 */

#ifndef COCCO_MODELS_MODELS_H
#define COCCO_MODELS_MODELS_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace cocco {

/**
 * Hyper-parameters of a model build. A zero (or, for widthMult, 1.0)
 * means "the model's paper default"; each builder reads only the
 * fields that are meaningful for its topology (see ModelInfo::knobs)
 * and ignores the rest.
 */
struct ModelParams
{
    /** Workload batch size; 0 = the platform's batch. Does not change
     *  the graph topology: the cost model accounts for batching on
     *  the platform side, so run specs apply an explicit workload
     *  batch (>= 1, including 1) over AcceleratorConfig::batch. */
    int batch = 0;

    int resolution = 0;  ///< input height in pixels (0 = model default)
    int seqLen = 0;      ///< sequence length for token models (0 = default)
    int depth = 0;       ///< depth knob: layers/cells/blocks (0 = default)
    double widthMult = 1.0; ///< channel width multiplier (> 0)

    /** RandWire wiring seed. Every seed yields a different — but per
     *  seed fully deterministic — random graph (same seed, same
     *  wiring, on every platform and in every run). */
    uint64_t seed = 1;

    bool
    operator==(const ModelParams &o) const
    {
        return batch == o.batch && resolution == o.resolution &&
               seqLen == o.seqLen && depth == o.depth &&
               widthMult == o.widthMult && seed == o.seed;
    }
};

/** Which ModelParams fields a builder reads (ModelInfo::knobs bits). */
enum ModelKnob : unsigned
{
    kKnobResolution = 1u << 0,
    kKnobSeqLen = 1u << 1,
    kKnobDepth = 1u << 2,
    kKnobWidthMult = 1u << 3,
    kKnobSeed = 1u << 4,
};

/** Registry metadata of one model: the source of every user-facing
 *  model list (`--list-models`, `describe-model`), so documentation
 *  cannot drift from the code. */
struct ModelInfo
{
    std::string name;     ///< registry key ("ResNet50", ...)
    std::string summary;  ///< one-line description
    unsigned knobs = 0;   ///< ModelKnob bits this builder reads
    ModelParams defaults; ///< fully-resolved paper defaults
};

/** "resolution=224 widthMult=1" style rendering of a model's
 *  supported knobs at their defaults. */
std::string modelKnobsStr(const ModelInfo &info);

/** Builder signature every registered model implements. */
using ModelBuilderFn = Graph (*)(const ModelParams &params);

/**
 * The string-keyed model registry, mirroring the SearcherRegistry:
 * frontends dispatch by name and new models plug in without touching
 * any caller. Built-ins are registered on first use in the paper's
 * presentation order; additional models can be added at startup via
 * add().
 */
class ModelRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered). */
    static ModelRegistry &instance();

    /**
     * Register a model (fatal on duplicate key). @p aliases resolve
     * like the primary name but are not listed by keys().
     */
    void add(ModelInfo info, ModelBuilderFn builder,
             const std::vector<std::string> &aliases = {});

    /** @return true when @p name (or an alias) names a model. */
    bool contains(const std::string &name) const;

    /** Build @p name with @p params (fatal: unknown name). */
    Graph build(const std::string &name,
                const ModelParams &params = {}) const;

    /** Registry metadata of @p name (fatal: unknown name). */
    const ModelInfo &info(const std::string &name) const;

    /** Primary model names, in the paper's presentation order. */
    std::vector<std::string> keys() const;

  private:
    ModelRegistry();

    struct Entry
    {
        ModelInfo info;
        ModelBuilderFn builder;
        std::vector<std::string> aliases;
    };
    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries_;
};

/** VGG16 (plain structure, 16 weight layers; default 224x224). */
Graph buildVGG16(const ModelParams &params = {});

/** ResNet50 (bottleneck residual blocks; default 224x224). */
Graph buildResNet50(const ModelParams &params = {});

/** ResNet152 (default 224x224). */
Graph buildResNet152(const ModelParams &params = {});

/** GoogleNet / Inception-v1 (default 224x224). */
Graph buildGoogleNet(const ModelParams &params = {});

/** Transformer encoder (default base: 6 layers, d=512, ffn=2048,
 *  seq=512; seqLen/depth/widthMult open other stack shapes). */
Graph buildTransformer(const ModelParams &params = {});

/** GPT-1 decoder stack (default 12 layers, d=768, ffn=3072, seq=512). */
Graph buildGPT(const ModelParams &params = {});

/**
 * RandWire network generated with the Watts-Strogatz random-graph
 * regime from the RandWire paper.
 * @param variant 'A' = small regime (WS(32, 4, 0.75), C=78);
 *                'B' = regular regime (WS(32, 8, 0.75), C=109)
 * @param seed    generator seed (deterministic per seed)
 */
Graph buildRandWire(char variant, uint64_t seed = 1);

/** RandWire with the full parameter block (seed via params.seed). */
Graph buildRandWire(char variant, const ModelParams &params);

/** NasNet-A-like network (default: 4 cells/stage, F=168, 331x331). */
Graph buildNasNet(const ModelParams &params = {});

/** MobileNetV2 (inverted residual bottlenecks; default 224x224). */
Graph buildMobileNetV2(const ModelParams &params = {});

/** FSRCNN-style super-resolution network (default 1280x720 frame;
 *  resolution sets the frame height, width follows 16:9). */
Graph buildSRCNN(const ModelParams &params = {});

/**
 * Build a model by name with the paper-default parameters. The
 * recognized names are exactly the ModelRegistry's — list them with
 * allModelNames() or `cocco --list-models`; they are intentionally
 * not duplicated here so this comment cannot drift from the registry.
 * Unknown names are a user error (fatal).
 */
Graph buildModel(const std::string &name);

/** Build a model by name with explicit parameters (fatal: unknown). */
Graph buildModel(const std::string &name, const ModelParams &params);

/** All recognized model names, generated from the registry (the
 *  paper's presentation order). */
std::vector<std::string> allModelNames();

template <bool Reading>
class FieldWalk;

/** The "params" block's field list (util/field_walk.h), for the
 *  documents that nest one: a run spec's workload and a workload-set
 *  tenant. A writer writes only the knobs that differ from their
 *  defaults. */
void modelParamsFields(FieldWalk<false> &v, const ModelParams &p);
void modelParamsFields(FieldWalk<true> &v, ModelParams &p);

/**
 * A declarative workload address: either a registered model name
 * (with parameters) or a Graph JSON file exported by
 * graphToJson()/`cocco export-model`. Resolved into a Graph by
 * resolveWorkload() (core/serialize.h).
 */
struct WorkloadSpec
{
    std::string model;  ///< registry name ("" when file-based)
    std::string file;   ///< Graph JSON path ("" when registry-based)
    ModelParams params; ///< build parameters (registry models only)
};

// --- Registration hooks -------------------------------------------------
// Each model translation unit keeps its own registry knowledge behind
// one of these; ModelRegistry's constructor calls them in presentation
// order (a plain function call, so no static-initialization-order or
// archive-elision hazards). Add a hook here when adding a model file.

void registerVggModels(ModelRegistry &r);
void registerResNetModels(ModelRegistry &r);
void registerGoogleNetModels(ModelRegistry &r);
void registerTransformerModels(ModelRegistry &r);
void registerRandWireModels(ModelRegistry &r);
void registerNasNetModels(ModelRegistry &r);
void registerMobileNetModels(ModelRegistry &r);

} // namespace cocco

#endif // COCCO_MODELS_MODELS_H
