/**
 * @file
 * The platform frontend: named accelerator presets and the JSON form
 * of AcceleratorConfig (including its EnergyModel), mirroring the
 * model and searcher registries so a platform is addressable by name
 * or by file instead of being a compile-time struct.
 *
 * Presets:
 *   simba     the paper's Simba-like single-core platform
 *             (Section 5.1.2; identical to AcceleratorConfig{})
 *   simba-x4  four simba cores behind the weight-sharing crossbar
 *             (the Table 3 scale-out)
 *   edge      a 0.8 GHz 2x2-PE / 8 GB/s budget device
 *   cloud     an 8x8-PE / 64 GB/s server part running batch 8
 *
 * Platform JSON (strict; every key optional — omitted fields keep
 * the base configuration's value, which is "simba" unless "base"
 * names another preset):
 *
 *   {
 *     "base": "simba",
 *     "peRows": 4, "peCols": 4, "macsPerPe": 64, "clockGhz": 1.0,
 *     "dramGBpsPerCore": 16.0, "maxRegions": 64, "channelAlign": 8,
 *     "doubleBufferWeights": false,
 *     "cores": 1, "batch": 1, "crossbarBytesPerCycle": 256.0,
 *     "energy": {
 *       "dramPjPerByte": 100.0, "sramBasePjPerByte": 0.2,
 *       "sramSlopePjPerByte": 0.025, "macPj": 0.05,
 *       "crossbarPjPerByte": 4.0, "sramAreaMm2PerMB": 1.2
 *     }
 *   }
 */

#ifndef COCCO_SIM_PLATFORM_H
#define COCCO_SIM_PLATFORM_H

#include <string>
#include <vector>

#include "sim/accelerator.h"

namespace cocco {

class JsonValue;

/**
 * A declarative platform address: a named preset, a platform JSON
 * file, or an inline configuration. At most one source may be given;
 * none at all means the default preset ("simba"). Resolved into an
 * AcceleratorConfig by resolvePlatform() (core/serialize.h).
 */
struct PlatformSpec
{
    std::string preset;  ///< preset name ("" = default unless file/inline)
    std::string file;    ///< platform JSON path ("" = none)
    bool inlineConfig = false; ///< true: use `config` verbatim
    AcceleratorConfig config;  ///< the inline configuration
};

/** The string-keyed platform-preset registry. */
class PlatformRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered). */
    static PlatformRegistry &instance();

    /** Register a preset (fatal on duplicate name). */
    void add(const std::string &name, const std::string &summary,
             const AcceleratorConfig &config);

    /** @return true when @p name is a registered preset. */
    bool contains(const std::string &name) const;

    /** Look up @p name into *out. @return false when unknown (the
     *  clean-user-error path; use platformPreset() to be fatal). */
    bool find(const std::string &name, AcceleratorConfig *out) const;

    /** Registered preset names, in registration order. */
    std::vector<std::string> keys() const;

    /** The one-line summary of @p name (fatal: unknown). */
    const std::string &summary(const std::string &name) const;

  private:
    PlatformRegistry();

    struct Entry
    {
        std::string name;
        std::string summary;
        AcceleratorConfig config;
    };
    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries_;
};

/** The preset named @p name (fatal with the known list: unknown). */
AcceleratorConfig platformPreset(const std::string &name);

/** Serialize a full platform description (every field + energy). */
std::string acceleratorToJson(const AcceleratorConfig &accel);

/**
 * Populate an AcceleratorConfig from a parsed platform document (the
 * schema above). Strict: unknown keys, type mismatches and physically
 * meaningless values (non-positive dimensions/rates, negative
 * energies) are errors. @return false with *err set on any problem.
 */
bool acceleratorFromJson(const JsonValue &doc, AcceleratorConfig *out,
                         std::string *err);

template <bool Reading>
class FieldWalk;

/** A platform address as run-spec and deployment documents give one,
 *  walked as a field (util/field_walk.h): a preset name, a lone
 *  {"file": PATH}, or an inline platform document. */
void platformAddress(FieldWalk<false> &v, const PlatformSpec &p);
void platformAddress(FieldWalk<true> &v, PlatformSpec &p);

} // namespace cocco

#endif // COCCO_SIM_PLATFORM_H
