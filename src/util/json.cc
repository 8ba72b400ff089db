#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/logging.h"

namespace cocco {

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
JsonWriter::comma()
{
    if (!stack_.empty()) {
        if (has_item_.back() && !pending_key_)
            out_ += ",";
        has_item_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    pending_key_ = false;
    out_ += "{";
    stack_.push_back('{');
    has_item_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    pending_key_ = false;
    out_ += "[";
    stack_.push_back('[');
    has_item_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != '{' || pending_key_)
        panic("JsonWriter: unbalanced endObject");
    stack_.pop_back();
    has_item_.pop_back();
    out_ += "}";
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != '[')
        panic("JsonWriter: unbalanced endArray");
    stack_.pop_back();
    has_item_.pop_back();
    out_ += "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    if (stack_.empty() || stack_.back() != '{')
        panic("JsonWriter: key outside object");
    if (pending_key_)
        panic("JsonWriter: key after key");
    comma();
    out_ += "\"" + escape(k) + "\":";
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    comma();
    pending_key_ = false;
    out_ += "\"" + escape(v) + "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    comma();
    pending_key_ = false;
    out_ += strprintf("%lld", static_cast<long long>(v));
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    comma();
    pending_key_ = false;
    out_ += strprintf("%llu", static_cast<unsigned long long>(v));
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    comma();
    pending_key_ = false;
    if (std::isfinite(v))
        out_ += strprintf("%.10g", v);
    else
        out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    comma();
    pending_key_ = false;
    out_ += v ? "true" : "false";
    return *this;
}

std::string
JsonWriter::str() const
{
    if (!stack_.empty() || pending_key_)
        panic("JsonWriter: document not closed");
    return out_;
}

// --- JsonValue ---------------------------------------------------------------

const char *
JsonValue::typeName() const
{
    switch (type_) {
      case Type::Null:
        return "null";
      case Type::Bool:
        return "bool";
      case Type::Number:
        return "number";
      case Type::String:
        return "string";
      case Type::Array:
        return "array";
      case Type::Object:
        return "object";
    }
    return "?";
}

bool
JsonValue::boolean() const
{
    if (type_ != Type::Bool)
        panic("JsonValue: boolean() on a %s", typeName());
    return bool_;
}

double
JsonValue::number() const
{
    if (type_ != Type::Number)
        panic("JsonValue: number() on a %s", typeName());
    return num_;
}

int64_t
JsonValue::integer() const
{
    double v = number();
    if (v != std::floor(v) || std::abs(v) > 9007199254740992.0) // 2^53
        panic("JsonValue: %g is not an exact integer", v);
    return static_cast<int64_t>(v);
}

const std::string &
JsonValue::str() const
{
    if (type_ != Type::String)
        panic("JsonValue: str() on a %s", typeName());
    return str_;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    if (type_ != Type::Array)
        panic("JsonValue: array() on a %s", typeName());
    return arr_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (type_ != Type::Object)
        panic("JsonValue: members() on a %s", typeName());
    return obj_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members())
        if (k == key)
            return &v;
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.type_ = Type::Bool;
    j.bool_ = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v, std::string text)
{
    JsonValue j;
    j.type_ = Type::Number;
    j.num_ = v;
    j.str_ = std::move(text);
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.type_ = Type::String;
    j.str_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> v)
{
    JsonValue j;
    j.type_ = Type::Array;
    j.arr_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeObject(std::vector<std::pair<std::string, JsonValue>> v)
{
    JsonValue j;
    j.type_ = Type::Object;
    j.obj_ = std::move(v);
    return j;
}

// --- parseJson ---------------------------------------------------------------

namespace {

/** Strict recursive-descent JSON parser over a string. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {
    }

    bool
    parse(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (err_ && err_->empty()) {
            int line = 1;
            for (size_t i = 0; i < pos_ && i < text_.size(); ++i)
                if (text_[i] == '\n')
                    ++line;
            *err_ = strprintf("line %d: %s", line, what.c_str());
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue *out)
    {
        if (++depth_ > kMaxDepth)
            return fail("nesting too deep");
        bool ok = parseValueInner(out);
        --depth_;
        return ok;
    }

    bool
    parseValueInner(JsonValue *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = JsonValue::makeString(std::move(s));
            return true;
        }
        if (literal("true")) {
            *out = JsonValue::makeBool(true);
            return true;
        }
        if (literal("false")) {
            *out = JsonValue::makeBool(false);
            return true;
        }
        if (literal("null")) {
            *out = JsonValue::makeNull();
            return true;
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        return fail(strprintf("unexpected character '%c'", c));
    }

    bool
    parseObject(JsonValue *out)
    {
        ++pos_; // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = JsonValue::makeObject(std::move(members));
            return true;
        }
        // Keys seen so far in this object.
        std::unordered_set<std::string> seen;
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            if (!seen.insert(key).second)
                return fail(strprintf("duplicate key \"%s\"",
                                      JsonWriter::escape(pathOf(&key))
                                          .c_str()));
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue v;
            at_.push_back({&key, 0});
            const bool ok = parseValue(&v);
            at_.pop_back();
            if (!ok)
                return false;
            members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                *out = JsonValue::makeObject(std::move(members));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    /** The full path of the key @p key in the value being parsed
     *  ("ga.population", "nodes[3].name"). */
    std::string
    pathOf(const std::string *key) const
    {
        std::string path;
        for (const auto &[k, i] : at_)
            path += k ? (path.empty() ? "" : ".") + *k
                      : strprintf("[%zu]", i);
        return path.empty() ? *key : path + "." + *key;
    }

    bool
    parseArray(JsonValue *out)
    {
        ++pos_; // '['
        std::vector<JsonValue> items;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = JsonValue::makeArray(std::move(items));
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue v;
            at_.push_back({nullptr, items.size()});
            const bool ok = parseValue(&v);
            at_.pop_back();
            if (!ok)
                return false;
            items.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                *out = JsonValue::makeArray(std::move(items));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string *out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected a string");
        ++pos_;
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') {
                *out = std::move(s);
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
            switch (e) {
              case '"':
                s += '"';
                break;
              case '\\':
                s += '\\';
                break;
              case '/':
                s += '/';
                break;
              case 'b':
                s += '\b';
                break;
              case 'f':
                s += '\f';
                break;
              case 'n':
                s += '\n';
                break;
              case 'r':
                s += '\r';
                break;
              case 't':
                s += '\t';
                break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(&cp))
                    return false;
                appendUtf8(s, cp);
                break;
              }
              default:
                return fail(strprintf("bad escape '\\%c'", e));
            }
        }
        return fail("unterminated string");
    }

    bool
    parseHex4(unsigned *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        *out = cp;
        return true;
    }

    /** BMP code point to UTF-8 (surrogates pass through as-is; the
     *  specs we parse are ASCII in practice). */
    static void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xc0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            s += static_cast<char>(0xe0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    /** The RFC 8259 number grammar:
     *  -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? */
    static bool
    validNumberToken(const std::string &t)
    {
        auto digit = [&](size_t i) {
            return i < t.size() &&
                   std::isdigit(static_cast<unsigned char>(t[i]));
        };
        size_t i = 0;
        if (i < t.size() && t[i] == '-')
            ++i;
        if (!digit(i))
            return false;
        if (t[i] == '0')
            ++i; // no leading zeros
        else
            while (digit(i))
                ++i;
        if (i < t.size() && t[i] == '.') {
            ++i;
            if (!digit(i))
                return false;
            while (digit(i))
                ++i;
        }
        if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
            ++i;
            if (i < t.size() && (t[i] == '+' || t[i] == '-'))
                ++i;
            if (!digit(i))
                return false;
            while (digit(i))
                ++i;
        }
        return i == t.size();
    }

    bool
    parseNumber(JsonValue *out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        std::string tok = text_.substr(start, pos_ - start);
        if (!validNumberToken(tok))
            return fail(strprintf("bad number '%s'", tok.c_str()));
        *out = JsonValue::makeNumber(std::strtod(tok.c_str(), nullptr), tok);
        return true;
    }

    static constexpr int kMaxDepth = 64;

    const std::string &text_;
    std::string *err_;
    size_t pos_ = 0;
    int depth_ = 0;
    /** Where the parse is: a member's key, or an element's index. */
    std::vector<std::pair<const std::string *, size_t>> at_;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *err)
{
    if (err)
        err->clear();
    JsonParser p(text, err);
    JsonValue v;
    if (!p.parse(&v))
        return false;
    *out = std::move(v);
    return true;
}

bool
loadJsonFile(const std::string &path, JsonValue *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = path + ": cannot read file";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string sub;
    if (!parseJson(ss.str(), out, &sub)) {
        if (err)
            *err = path + ": " + sub;
        return false;
    }
    return true;
}

bool
jsonFail(std::string *err, const std::string &what)
{
    if (err && err->empty())
        *err = what;
    return false;
}

bool
jsonReadString(const JsonValue &v, const char *key, std::string *out,
               std::string *err)
{
    if (!v.isString())
        return jsonFail(err, strprintf("\"%s\" must be a string (got %s)",
                                         key, v.typeName()));
    *out = v.str();
    return true;
}

bool
jsonReadNumber(const JsonValue &v, const char *key, double *out,
               std::string *err)
{
    if (!v.isNumber())
        return jsonFail(err, strprintf("\"%s\" must be a number (got %s)",
                                         key, v.typeName()));
    *out = v.number();
    return true;
}

bool
jsonReadWholeNumber(const JsonValue &v, const char *key, double *out,
                    std::string *err)
{
    if (!jsonReadNumber(v, key, out, err))
        return false;
    if (std::floor(*out) != *out || std::abs(*out) > 9007199254740992.0)
        return jsonFail(err,
                          strprintf("\"%s\" must be an integer", key));
    return true;
}

bool
jsonReadBool(const JsonValue &v, const char *key, bool *out,
             std::string *err)
{
    if (!v.isBool())
        return jsonFail(err, strprintf("\"%s\" must be a boolean (got %s)",
                                         key, v.typeName()));
    *out = v.boolean();
    return true;
}

} // namespace cocco
