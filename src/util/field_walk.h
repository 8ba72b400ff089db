/**
 * @file
 * One walker for every document's field list.
 *
 * A document is written down once, as a function template over its
 * keys with one line per key, walked in the list's order:
 *
 *   template <typename V, typename E>
 *   void
 *   energyFields(V &v, E &e)
 *   {
 *       v.field(opt("dramPjPerByte"), e.dramPjPerByte, atLeast(0));
 *       ...
 *   }
 *
 * FieldWalk<false> walks it to write the document to a JsonWriter
 * (the list then sees const data). FieldWalk<true> walks it to read a
 * parsed JsonValue back strictly: a wrong type, an integer that is not
 * exact or does not fit its field, a value outside its line's bound or
 * names, a missing required key, and a member no line walked (an
 * unknown key, or a repeat) each fail the walk with a reason that
 * names the key's full path ("ga.population",
 * "deployment.corePlatforms[2].peRows", "nodes[3].outH"). An absent
 * optional key keeps the value already in the output. The first
 * failure wins and the lines after it read nothing. A rule that spans
 * fields is a named function run after the lines it reads.
 */

#ifndef COCCO_UTIL_FIELD_WALK_H
#define COCCO_UTIL_FIELD_WALK_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace cocco {

/** A field line's key. A required key must be present; an optional
 *  one may be absent. A writer writes the key only when `write`. */
struct Key
{
    Key(const char *key) : name(key) {} // a plain name: required

    const char *name;
    bool optional = false;
    bool write = true;
};

/** An optional key, which a writer writes when @p write. */
inline Key
opt(const char *name, bool write = true)
{
    Key k(name);
    k.optional = true;
    k.write = write;
    return k;
}

/** A number line's domain: >= min, or > min when strict. */
struct Bound
{
    double min = -std::numeric_limits<double>::infinity();
    bool strict = false;
};

inline Bound
atLeast(double min)
{
    return {min, false};
}

inline Bound
above(double min)
{
    return {min, true};
}

/** An enum line's names: each spelling and the value it reads as. A
 *  writer writes a value's first spelling; a reason lists only first
 *  spellings, so later ones are aliases. */
template <typename E>
using Name = std::pair<const char *, E>;

template <bool Reading>
class FieldWalk
{
  public:
    static constexpr bool kReading = Reading;

    /** A writer onto @p w. */
    explicit FieldWalk(JsonWriter *w) : w_(w) {}

    /** A reader of one @p doc document ("platform"; its unknown-key
     *  reasons say "unknown platform key"), failing into *err. With
     *  @p nullIsNaN a number may be null, the writer's non-finite
     *  value. */
    FieldWalk(const char *doc, std::string *err, bool nullIsNaN = false)
        : doc_(doc), err_(err), nullIsNaN_(nullIsNaN)
    {
    }

    /** Read @p v, at @p path ("" for a document root), with @p fn.
     *  @return whether every line and rule passed. */
    template <typename Fn>
    bool
    read(const JsonValue &v, const std::string &path, Fn fn)
    {
        cur_ = &v;
        path_ = path;
        fn();
        return ok();
    }

    /** The current object's member @p key, walked by @p fn (a writer
     *  writes the key, then what @p fn writes). @return whether the
     *  key is there (a writer: whether it wrote it). */
    template <typename Fn>
    bool
    at(const Key &key, Fn fn)
    {
        if constexpr (!Reading) {
            if (!key.write)
                return false;
            w_->key(key.name);
            fn();
            return true;
        } else {
            Mark back;
            if (!enter(key, &back))
                return false;
            fn();
            leave(back);
            return true;
        }
    }

    /** A scalar: a string, a bool, an integer (exact, within its type)
     *  or a number, within @p bound. */
    template <typename T>
    bool
    field(const Key &key, T &&x, Bound bound = {})
    {
        return at(key, [&] { value(x, bound); });
    }

    /** A string that reads as one value of @p names. */
    template <typename X, typename E, size_t N>
    bool
    choice(const Key &key, X &&x, const Name<E> (&names)[N])
    {
        return at(key, [&] {
            if constexpr (!Reading) {
                for (const auto &[name, e] : names)
                    if (e == x)
                        return (void)w_->value(name);
                panic("FieldWalk: \"%s\" has no name", key.name);
            } else {
                std::string s;
                value(s);
                if (!ok())
                    return;
                for (const auto &[name, e] : names)
                    if (s == name)
                        return (void)(x = e);
                std::vector<const char *> first; // aliases left out
                for (size_t i = 0; i < N; ++i) {
                    bool alias = false;
                    for (size_t j = 0; j < i; ++j)
                        alias = alias || names[j].second == names[i].second;
                    if (!alias)
                        first.push_back(names[i].first);
                }
                failChoice(s, first);
            }
        });
    }

    /** An object whose keys @p fn walks; *present (when given) says
     *  whether a reader found it. */
    template <typename Fn, typename B = bool>
    bool
    object(const Key &key, Fn fn, B *present = nullptr)
    {
        const bool there = at(key, [&] { members(fn); });
        if constexpr (Reading)
            if (present)
                *present = there;
        return there;
    }

    /** An array whose elements @p fn walks one by one (called with the
     *  element, the walker at its value). */
    template <typename Vec, typename Fn>
    bool
    list(const Key &key, Vec &vec, Fn fn)
    {
        return at(key, [&] { items(vec, fn); });
    }

    /** An array of scalars. */
    template <typename Vec>
    bool
    list(const Key &key, Vec &vec)
    {
        return list(key, vec, [&](auto &e) { value(e); });
    }

    /** An array of objects whose keys @p fn walks. */
    template <typename Vec, typename Fn>
    bool
    objects(const Key &key, Vec &vec, Fn fn)
    {
        return list(key, vec, [&](auto &e) { members([&] { fn(e); }); });
    }

    /** An object of free-form numeric members. */
    template <typename Pairs>
    bool
    entries(const Key &key, Pairs &pairs)
    {
        return object(key, [&] {
            if constexpr (!Reading) {
                for (const auto &[k, x] : pairs)
                    w_->field(k, x);
            } else {
                for (const auto &[k, x] : cur_->members()) {
                    pairs.emplace_back(k, 0.0);
                    field(k.c_str(), pairs.back().second);
                }
            }
        });
    }

    /** A reader's key naming a @p registry entry, which replaces *out
     *  before the lines after it override its fields, whatever the
     *  member order. A writer writes nothing. */
    template <typename T, typename Registry>
    void
    base(const char *key, T &out, const Registry &registry,
         const char *what)
    {
        if constexpr (Reading) {
            std::string name;
            if (field(opt(key), name) && ok() && !registry.find(name, &out))
                failBase(key, what, name, registry.keys());
        }
    }

    /** The current value addresses a registry entry (a name), a file
     *  (an object whose one key is "file") or an inline object that
     *  @p fn walks. */
    template <typename S, typename B, typename Fn>
    void
    address(S &name, S &file, B &inlined, Fn fn)
    {
        if constexpr (!Reading) {
            if (!file.empty())
                members([&] { field("file", file); });
            else if (inlined)
                members(fn);
            else
                w_->value(name);
        } else {
            switch (addressForm()) {
              case Form::Name:
                name = cur_->str();
                break;
              case Form::File:
                members([&] { field("file", file); });
                break;
              case Form::Inline:
                inlined = true;
                members(fn);
                break;
              case Form::None:
                break;
            }
        }
    }

    /** The current value is an object whose keys @p fn walks; a reader
     *  then refuses every member no line walked. */
    template <typename Fn>
    void
    members(Fn fn)
    {
        if constexpr (!Reading) {
            w_->beginObject();
            fn();
            w_->endObject();
        } else {
            Walked walked;
            if (!openObject(&walked))
                return;
            fn();
            closeObject(&walked);
        }
    }

    /** The current value is an array whose elements @p fn walks. */
    template <typename Vec, typename Fn>
    void
    items(Vec &vec, Fn fn)
    {
        if constexpr (!Reading) {
            w_->beginArray();
            for (auto &e : vec)
                fn(e);
            w_->endArray();
        } else {
            size_t n = 0;
            if (!openArray(&n))
                return;
            vec.assign(n, typename Vec::value_type());
            for (size_t i = 0; ok() && i < n; ++i) {
                Mark back;
                enterElement(i, &back);
                fn(vec[i]);
                leave(back);
            }
        }
    }

    /** The current value as a scalar (see field). */
    template <typename T>
    [[gnu::noinline]] void
    value(T &x, Bound bound = {})
    {
        if constexpr (!Reading) {
            w_->value(x);
        } else if (ok()) {
            const char *at = path_.c_str();
            if constexpr (std::is_same_v<T, std::string>) {
                jsonReadString(*cur_, at, &x, err_);
            } else if constexpr (std::is_same_v<T, bool>) {
                jsonReadBool(*cur_, at, &x, err_);
            } else {
                T y{};
                bool read = true;
                if constexpr (std::is_integral_v<T>)
                    read = jsonReadIntAs(*cur_, at, &y, err_);
                else if (nullIsNaN_ && cur_->isNull())
                    return (void)(x = std::numeric_limits<T>::quiet_NaN());
                else
                    read = jsonReadNumber(*cur_, at, &y, err_);
                if (read && inBound(static_cast<double>(y), bound))
                    x = y;
            }
        }
    }

    /** A rule over the lines read so far: a non-empty @p why fails a
     *  reader's walk. */
    void
    rule(const std::string &why)
    {
        if (Reading && ok() && !why.empty())
            fail(why);
    }

    /** The full path of the current object's key @p key. */
    std::string
    pathOf(const std::string &key) const
    {
        return path_.empty() ? key : path_ + "." + key;
    }

    /** The current value's full path. */
    const std::string &path() const { return path_; }

  private:
    /** Where a step into a member or an element returns to. */
    struct Mark
    {
        const JsonValue *value;
        size_t pathLength;
    };

    /** The members of the object being walked that a line read. */
    struct Walked
    {
        std::vector<char> seen;
        Walked *outer = nullptr;
    };

    /** What an address value is. */
    enum class Form { None, Name, File, Inline };

    // A reader's steps, kept out of line so that a field line
    // compiles to a few calls.
    bool ok() const { return err_->empty(); }
    void fail(const std::string &why) { jsonFail(err_, why); }

    [[gnu::noinline]] bool
    enter(const Key &key, Mark *back)
    {
        if (!ok())
            return false;
        const auto &ms = cur_->members();
        for (size_t i = 0; i < ms.size(); ++i) {
            if (ms[i].first != key.name)
                continue;
            walked_->seen[i] = 1;
            *back = {cur_, path_.size()};
            if (!path_.empty())
                path_ += '.';
            path_ += key.name;
            cur_ = &ms[i].second;
            return true;
        }
        if (!key.optional)
            fail(strprintf("\"%s\" is required", pathOf(key.name).c_str()));
        return false;
    }

    [[gnu::noinline]] void
    enterElement(size_t i, Mark *back)
    {
        *back = {cur_, path_.size()};
        path_ += strprintf("[%zu]", i);
        cur_ = &cur_->array()[i];
    }

    void
    leave(const Mark &back)
    {
        cur_ = back.value;
        path_.resize(back.pathLength);
    }

    [[gnu::noinline]] bool
    openObject(Walked *walked)
    {
        if (!ok())
            return false;
        if (!cur_->isObject()) {
            fail(path_.empty()
                     ? strprintf("a %s document must be a JSON object "
                                 "(got %s)",
                                 doc_, cur_->typeName())
                     : strprintf("\"%s\" must be an object (got %s)",
                                 path_.c_str(), cur_->typeName()));
            return false;
        }
        walked->seen.assign(cur_->members().size(), 0);
        walked->outer = std::exchange(walked_, walked);
        return true;
    }

    [[gnu::noinline]] void
    closeObject(Walked *walked)
    {
        walked_ = walked->outer;
        const auto &ms = cur_->members();
        for (size_t i = 0; ok() && i < ms.size(); ++i) {
            if (walked->seen[i])
                continue;
            bool repeat = false;
            for (size_t j = 0; j < i; ++j)
                repeat = repeat || ms[j].first == ms[i].first;
            fail(strprintf("%s %s%skey \"%s\"",
                           repeat ? "duplicate" : "unknown", doc_,
                           *doc_ ? " " : "", pathOf(ms[i].first).c_str()));
        }
    }

    [[gnu::noinline]] bool
    openArray(size_t *n)
    {
        if (!ok())
            return false;
        if (!cur_->isArray()) {
            fail(strprintf("\"%s\" must be an array (got %s)",
                           path_.c_str(), cur_->typeName()));
            return false;
        }
        *n = cur_->array().size();
        return true;
    }

    [[gnu::noinline]] Form
    addressForm()
    {
        if (!ok())
            return Form::None;
        if (cur_->isString())
            return Form::Name;
        if (!cur_->isObject()) {
            fail(strprintf("\"%s\" must be a preset name or an object "
                           "(got %s)",
                           path_.c_str(), cur_->typeName()));
            return Form::None;
        }
        if (!cur_->find("file"))
            return Form::Inline;
        for (const auto &[k, x] : cur_->members()) {
            if (k != "file") {
                fail(strprintf("a \"%s\" file reference must not carry "
                               "other keys (got \"%s\")",
                               path_.c_str(), pathOf(k).c_str()));
                return Form::None;
            }
        }
        return Form::File;
    }

    [[gnu::noinline]] bool
    inBound(double x, Bound bound)
    {
        if (bound.strict ? x > bound.min : x >= bound.min)
            return true;
        fail(strprintf("\"%s\" must be %s %g", path_.c_str(),
                       bound.strict ? ">" : ">=", bound.min));
        return false;
    }

    [[gnu::noinline]] void
    failChoice(const std::string &got, const std::vector<const char *> &first)
    {
        std::string known;
        for (size_t i = 0; i < first.size(); ++i)
            known += strprintf("%s\"%s\"",
                               i == 0                 ? ""
                               : i + 1 < first.size() ? ", "
                               : first.size() > 2     ? ", or "
                                                      : " or ",
                               first[i]);
        fail(strprintf("\"%s\" must be %s (got \"%s\")", path_.c_str(),
                       known.c_str(), got.c_str()));
    }

    [[gnu::noinline]] void
    failBase(const char *key, const char *what, const std::string &name,
             const std::vector<std::string> &known)
    {
        fail(strprintf("\"%s\" names an unknown %s \"%s\" (known: %s)",
                       pathOf(key).c_str(), what, name.c_str(),
                       joinComma(known).c_str()));
    }

    JsonWriter *w_ = nullptr;
    const char *doc_ = "";
    std::string *err_ = nullptr;
    bool nullIsNaN_ = false;
    const JsonValue *cur_ = nullptr;
    Walked *walked_ = nullptr;
    std::string path_;
};

} // namespace cocco

#endif // COCCO_UTIL_FIELD_WALK_H
