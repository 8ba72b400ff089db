/**
 * @file
 * Minimal JSON support: a streaming writer used to export search
 * results and execution schemes to downstream tooling, and a strict
 * recursive-descent parser (JsonValue / parseJson) used to ingest
 * declarative run specs (`cocco run --spec`) and to validate emitted
 * metrics documents. No third-party dependency; both directions are
 * plain standard-library code.
 */

#ifndef COCCO_UTIL_JSON_H
#define COCCO_UTIL_JSON_H

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cocco {

/** Streaming JSON writer with nesting validation. */
class JsonWriter
{
  public:
    JsonWriter() = default;

    /** Begin the root (or nested) object/array. */
    JsonWriter &beginObject();
    JsonWriter &beginArray();
    JsonWriter &endObject();
    JsonWriter &endArray();

    /** Set the key for the next value inside an object. */
    JsonWriter &key(const std::string &k);

    /** Scalar values. */
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);

    /** Convenience: key + scalar. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, T v)
    {
        return key(k).value(v);
    }

    /** Finish and return the document; panics on unbalanced nesting. */
    std::string str() const;

    /** JSON string escaping (exposed for tests). */
    static std::string escape(const std::string &s);

  private:
    void comma();

    std::string out_;
    std::vector<char> stack_;    // '{' or '['
    std::vector<bool> has_item_; // per nesting level
    bool pending_key_ = false;
};

/**
 * One parsed JSON value. Type accessors panic on mismatch (callers
 * check the type, or use the checked find()/lookup patterns), so a
 * malformed document can never be silently misread. Object member
 * order is preserved. Numbers are stored as double (exact up to 2^53)
 * together with their source text, from which the integer readers
 * below read integer literals exactly.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default; ///< null

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Human-readable type name ("object", "number", ...). */
    const char *typeName() const;

    /** Checked accessors (panic on type mismatch). */
    bool boolean() const;
    double number() const;
    /** number() rounded to int64 (panics when out of exact range). */
    int64_t integer() const;
    const std::string &str() const;
    /** A parsed number's source text, for readers that need more
     *  digits than a double holds ("18446744073709551615"); empty for
     *  other values and for numbers built without one. */
    std::string numberText() const { return isNumber() ? str_ : ""; }
    const std::vector<JsonValue> &array() const;
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Object member lookup; null when absent (panics: not object). */
    const JsonValue *find(const std::string &key) const;

    /** Construction (used by the parser and tests). */
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v, std::string text = {});
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> v);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_; ///< a string, or a number's source text
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

/**
 * Parse a complete JSON document (strict: no comments, no trailing
 * commas, no key twice in one object, nothing after the root value).
 * @return false with *err set to "line L: problem" on malformed input.
 */
bool parseJson(const std::string &text, JsonValue *out, std::string *err);

/**
 * Read the file at @p path and parse it as one JSON document.
 * @return false with *err set to "path: problem" when the file cannot
 * be read or does not parse.
 */
bool loadJsonFile(const std::string &path, JsonValue *out,
                  std::string *err);

// --- Checked member readers for strict schema parsers -------------------
// Each returns false on a type mismatch and sets *err (when non-null
// and still empty) to a '"key" must be ...' message, so schemas built
// on top reject malformed documents instead of misreading them.

/** The shared failure path of the strict parsers: record @p what in
 *  *err (when non-null and still empty — the first error wins) and
 *  return false. */
bool jsonFail(std::string *err, const std::string &what);

bool jsonReadString(const JsonValue &v, const char *key, std::string *out,
                    std::string *err);
bool jsonReadNumber(const JsonValue &v, const char *key, double *out,
                    std::string *err);
bool jsonReadBool(const JsonValue &v, const char *key, bool *out,
                  std::string *err);

/** A number that is not an integer literal ("2e2", "1.0"): its value
 *  when that is a whole number within 2^53 (beyond, a double has lost
 *  digits), else '"key" must be an integer'. */
bool jsonReadWholeNumber(const JsonValue &v, const char *key, double *out,
                         std::string *err);

/**
 * Read @p v as a T. An integer literal reads exactly from its source
 * text ("18446744073709551615" fills a uint64 seed), and one outside T
 * is '"key" is out of range'; any other number goes through
 * jsonReadWholeNumber, then the same range check.
 */
template <typename T>
bool
jsonReadIntAs(const JsonValue &v, const char *key, T *out, std::string *err)
{
    const std::string text = v.numberText();
    const char *end = text.data() + text.size();
    T x{};
    const auto [stop, ec] = std::from_chars(text.data(), end, x);
    double d = 0.0;
    const bool literal = !text.empty() && stop == end;
    if (!literal && !jsonReadWholeNumber(v, key, &d, err))
        return false;
    if (literal ? ec != std::errc()
                : d < static_cast<double>(std::numeric_limits<T>::min()) ||
                      d > static_cast<double>(std::numeric_limits<T>::max()))
        return jsonFail(err, std::string("\"") + key + "\" is out of range");
    *out = literal ? x : static_cast<T>(d);
    return true;
}

} // namespace cocco

#endif // COCCO_UTIL_JSON_H
