/**
 * The mutation fuzz every document's strict reader faces: each key
 * path of a full document, doctored four ways (a wrong type, an
 * unknown sibling, the key repeated in the text, the key deleted where
 * it is required) and, on an integer field, set to 2.5 and 1e300.
 * Every doctored text must be refused with a reason that names the
 * key's path. A full document gives every floating-point field a
 * non-integral value, because integer literals are taken to be
 * integer fields.
 */

#ifndef COCCO_TESTS_DOC_FUZZ_H
#define COCCO_TESTS_DOC_FUZZ_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace docfuzz {

using cocco::JsonValue;
using Members = std::vector<std::pair<std::string, JsonValue>>;

inline JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(cocco::parseJson(text, &v, &err)) << err;
    return v;
}

inline JsonValue
number(const std::string &text)
{
    return JsonValue::makeNumber(std::strtod(text.c_str(), nullptr), text);
}

/** @p v as JSON text, numbers as their source text. */
inline std::string
text(const JsonValue &v)
{
    switch (v.type()) {
      case JsonValue::Type::Null:
        return "null";
      case JsonValue::Type::Bool:
        return v.boolean() ? "true" : "false";
      case JsonValue::Type::Number:
        return v.numberText().empty() ? cocco::strprintf("%.17g", v.number())
                                      : v.numberText();
      case JsonValue::Type::String:
        return "\"" + cocco::JsonWriter::escape(v.str()) + "\"";
      case JsonValue::Type::Array: {
        std::string out = "[";
        for (size_t i = 0; i < v.array().size(); ++i)
            out += (i ? "," : "") + text(v.array()[i]);
        return out + "]";
      }
      case JsonValue::Type::Object: {
        std::string out = "{";
        for (size_t i = 0; i < v.members().size(); ++i)
            out += (i ? ",\"" : "\"") +
                   cocco::JsonWriter::escape(v.members()[i].first) +
                   "\":" + text(v.members()[i].second);
        return out + "}";
      }
    }
    return "";
}

/** One object member of a document, by path ("runs[0].cache.hits"). */
struct KeyPath
{
    std::string path, parent, key;
    JsonValue value;
};

inline void
collectKeys(const JsonValue &v, const std::string &path,
            std::vector<KeyPath> *out)
{
    if (v.isArray()) {
        for (size_t i = 0; i < v.array().size(); ++i)
            collectKeys(v.array()[i], path + "[" + std::to_string(i) + "]",
                        out);
    } else if (v.isObject()) {
        for (const auto &[k, x] : v.members()) {
            std::string at = path.empty() ? k : path + "." + k;
            out->push_back({at, path, k, x});
            collectKeys(x, at, out);
        }
    }
}

/** @p v rebuilt with @p edit applied to the members of the object
 *  that holds the key at @p target (and the key's index there). */
inline JsonValue
edited(const JsonValue &v, const std::string &path,
       const std::string &target,
       const std::function<void(Members &, size_t)> &edit)
{
    if (v.isArray()) {
        std::vector<JsonValue> items;
        for (size_t i = 0; i < v.array().size(); ++i)
            items.push_back(edited(v.array()[i],
                                   path + "[" + std::to_string(i) + "]",
                                   target, edit));
        return JsonValue::makeArray(std::move(items));
    }
    if (!v.isObject())
        return v;
    Members members;
    size_t hit = v.members().size();
    for (const auto &[k, x] : v.members()) {
        std::string at = path.empty() ? k : path + "." + k;
        if (at == target)
            hit = members.size();
        members.emplace_back(k, edited(x, at, target, edit));
    }
    if (hit < members.size())
        edit(members, hit);
    return JsonValue::makeObject(std::move(members));
}

inline JsonValue
replaced(const JsonValue &doc, const std::string &target, JsonValue with)
{
    return edited(doc, "", target,
                  [&](Members &ms, size_t i) { ms[i].second = with; });
}

inline JsonValue
deleted(const JsonValue &doc, const std::string &target)
{
    return edited(doc, "", target, [](Members &ms, size_t i) {
        ms.erase(ms.begin() + static_cast<long>(i));
    });
}

/** A doctored document and the key path its refusal must name. */
struct Mutation
{
    std::string what, path, text;
};

/** What a format's reader knows of its keys. */
struct Keys
{
    /** Whether the key must be present (deleting it is refused). */
    std::function<bool(const KeyPath &)> required = [](const KeyPath &) {
        return false;
    };
    /** Whether the key sits in an object of free-form entries: any
     *  sibling is welcome and its value is any number. */
    std::function<bool(const KeyPath &)> freeForm = [](const KeyPath &) {
        return false;
    };
};

/** Every mutation of @p doc's key paths. */
inline std::vector<Mutation>
mutations(const JsonValue &doc, const Keys &keys)
{
    std::vector<KeyPath> paths;
    collectKeys(doc, "", &paths);
    std::vector<Mutation> out;
    auto add = [&](const std::string &what, const std::string &path,
                   const JsonValue &doctored) {
        out.push_back({what, path, text(doctored)});
    };
    for (const KeyPath &kp : paths) {
        const bool free = keys.freeForm(kp);
        // "1" for a scalar, 1 for a string, an object or an array (a
        // string could name a preset in place of an inline object).
        JsonValue wrong = kp.value.isString() || kp.value.isObject() ||
                                  kp.value.isArray()
                              ? JsonValue::makeNumber(1.0, "1")
                              : JsonValue::makeString("1");
        add(kp.path + " as a " + wrong.typeName(), kp.path,
            replaced(doc, kp.path, wrong));
        if (!free)
            add("a sibling of " + kp.path,
                kp.parent.empty() ? "bogus" : kp.parent + ".bogus",
                edited(doc, "", kp.path, [](Members &ms, size_t) {
                    ms.emplace_back("bogus", JsonValue::makeNumber(1.0, "1"));
                }));
        add(kp.path + " twice", kp.path,
            edited(doc, "", kp.path, [](Members &ms, size_t i) {
                ms.insert(ms.begin() + static_cast<long>(i) + 1, ms[i]);
            }));
        if (keys.required(kp))
            add("deleting " + kp.path, kp.path, deleted(doc, kp.path));
        const std::string &digits = kp.value.numberText();
        if (kp.value.isNumber() && !free &&
            digits.find_first_of(".eE") == std::string::npos)
            for (const char *bad : {"2.5", "1e300"})
                add(kp.path + " = " + bad, kp.path,
                    replaced(doc, kp.path, number(bad)));
    }
    return out;
}

/** Expect @p reason (a reader of a document's text: "" when it
 *  accepts it) to refuse every mutation of @p doc, naming its path.
 *  @return how many mutations it saw. */
inline int
expectEveryMutationRefused(
    const JsonValue &doc, const Keys &keys,
    const std::function<std::string(const std::string &)> &reason)
{
    EXPECT_EQ(reason(text(doc)), "") << "the full document is refused";
    const std::vector<Mutation> all = mutations(doc, keys);
    for (const Mutation &m : all) {
        const std::string why = reason(m.text);
        EXPECT_FALSE(why.empty()) << m.what << " was accepted";
        EXPECT_NE(why.find("\"" + m.path), std::string::npos)
            << m.what << ": " << why;
    }
    return static_cast<int>(all.size());
}

} // namespace docfuzz

#endif // COCCO_TESTS_DOC_FUZZ_H
