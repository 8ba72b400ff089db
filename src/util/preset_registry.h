/**
 * @file
 * One string-keyed registry of named presets, shared by the platform
 * presets (sim/platform.h) and the deployment presets
 * (sim/deployment.h). Each preset type defines its own instance(),
 * which builds the registry with the noun its messages use
 * ("platform", "deployment") and registers the built-ins.
 */

#ifndef COCCO_UTIL_PRESET_REGISTRY_H
#define COCCO_UTIL_PRESET_REGISTRY_H

#include <string>
#include <vector>

#include "util/logging.h"

namespace cocco {

/** The registry of named presets of type T, in registration order. */
template <typename T>
class PresetRegistry
{
  public:
    /** The process-wide registry (built-ins pre-registered; defined
     *  beside the preset type). */
    static PresetRegistry &instance();

    /** Register a preset (fatal on duplicate name). */
    void
    add(const std::string &name, const std::string &summary, const T &preset)
    {
        if (find(name))
            fatal("%s '%s' is already registered", what_, name.c_str());
        entries_.push_back({name, summary, preset});
    }

    /** @return true when @p name is a registered preset. */
    bool
    contains(const std::string &name) const
    {
        return find(name) != nullptr;
    }

    /** Look up @p name into *out. @return false when unknown (the
     *  clean-user-error path; use preset() to be fatal). */
    bool
    find(const std::string &name, T *out) const
    {
        const Entry *e = find(name);
        if (!e)
            return false;
        *out = e->preset;
        return true;
    }

    /** The preset named @p name (fatal with the known list: unknown). */
    T
    preset(const std::string &name) const
    {
        const Entry *e = find(name);
        if (!e)
            fatal("unknown %s '%s' (known: %s)", what_, name.c_str(),
                  joinComma(keys()).c_str());
        return e->preset;
    }

    /** Registered preset names, in registration order. */
    std::vector<std::string>
    keys() const
    {
        std::vector<std::string> out;
        for (const Entry &e : entries_)
            out.push_back(e.name);
        return out;
    }

    /** The one-line summary of @p name (fatal: unknown). */
    const std::string &
    summary(const std::string &name) const
    {
        const Entry *e = find(name);
        if (!e)
            fatal("unknown %s '%s'", what_, name.c_str());
        return e->summary;
    }

  private:
    /** An empty registry of @p what presets. */
    explicit PresetRegistry(const char *what) : what_(what) {}

    struct Entry
    {
        std::string name;
        std::string summary;
        T preset;
    };

    const Entry *
    find(const std::string &name) const
    {
        for (const Entry &e : entries_)
            if (e.name == name)
                return &e;
        return nullptr;
    }

    const char *what_;
    std::vector<Entry> entries_;
};

} // namespace cocco

#endif // COCCO_UTIL_PRESET_REGISTRY_H
