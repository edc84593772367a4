/**
 * @file
 * Minimal strict JSON parser for tests (RFC 8259 subset: objects,
 * arrays, strings, numbers, true/false/null; no extensions). parse()
 * returns false with a diagnostic instead of accepting sloppy input —
 * trailing commas, NaN/Infinity, unescaped control characters and
 * leading zeros are all rejected, so "parses here" really means
 * "parses everywhere".
 *
 * Shared by the serialization round-trip tests (writeJsonRun
 * documents) and the observability tests (timeline trace-event JSON,
 * per-frame JSONL). Header-only on purpose: the
 * tests/ tree has no library target.
 */

#ifndef REGPU_TESTS_STRICT_JSON_HH
#define REGPU_TESTS_STRICT_JSON_HH

#include <cctype>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace regpu::testutil
{

class StrictJsonParser
{
  public:
    explicit StrictJsonParser(std::string text) : s(std::move(text)) {}

    bool
    parse(std::string &error)
    {
        pos = 0;
        err.clear();
        skipWs();
        if (!parseValue() || !err.empty()) {
            error = err.empty() ? "parse failed" : err;
            return false;
        }
        skipWs();
        if (pos != s.size()) {
            error = "trailing garbage at offset "
                + std::to_string(pos);
            return false;
        }
        return true;
    }

    /** Top-level object keys seen, in document order. */
    const std::vector<std::string> &topLevelKeys() const
    {
        return keys;
    }

    /** Raw text of a top-level value (for numeric re-parsing). */
    std::string
    topLevelValueText(const std::string &key) const
    {
        auto it = values.find(key);
        return it == values.end() ? std::string() : it->second;
    }

  private:
    std::string s;
    std::size_t pos = 0;
    std::string err;
    std::vector<std::string> keys;
    std::map<std::string, std::string> values;
    int depth = 0;

    void
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(pos);
    }

    void
    skipWs()
    {
        while (pos < s.size()
               && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'
                   || s[pos] == '\r'))
            pos++;
    }

    bool
    parseValue()
    {
        if (pos >= s.size())
            return fail("unexpected end"), false;
        switch (s[pos]) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': { std::string unused;
                      return parseString(unused); }
          case 't': return parseLiteral("true");
          case 'f': return parseLiteral("false");
          case 'n': return parseLiteral("null");
          default: return parseNumber();
        }
    }

    bool
    parseLiteral(const char *lit)
    {
        for (const char *p = lit; *p; p++, pos++)
            if (pos >= s.size() || s[pos] != *p)
                return fail(std::string("bad literal '") + lit + "'"),
                       false;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (s[pos] != '"')
            return fail("expected string"), false;
        pos++;
        out.clear();
        while (pos < s.size()) {
            const unsigned char c =
                static_cast<unsigned char>(s[pos]);
            if (c == '"') {
                pos++;
                return true;
            }
            if (c < 0x20)
                return fail("unescaped control char in string"),
                       false;
            if (c == '\\') {
                pos++;
                if (pos >= s.size())
                    return fail("truncated escape"), false;
                const char e = s[pos];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 >= s.size())
                        return fail("truncated \\u escape"), false;
                    unsigned code = 0;
                    for (int k = 0; k < 4; k++) {
                        const char h = s[pos + 1 + k];
                        if (!std::isxdigit(
                                static_cast<unsigned char>(h)))
                            return fail("bad \\u escape"), false;
                        code = code * 16
                            + (std::isdigit(
                                   static_cast<unsigned char>(h))
                                   ? h - '0'
                                   : (std::tolower(h) - 'a' + 10));
                    }
                    pos += 4;
                    out += static_cast<char>(code & 0xFF);
                    break;
                  }
                  default:
                    return fail("bad escape"), false;
                }
                pos++;
            } else {
                out += static_cast<char>(c);
                pos++;
            }
        }
        return fail("unterminated string"), false;
    }

    bool
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            pos++;
        if (pos >= s.size()
            || !std::isdigit(static_cast<unsigned char>(s[pos])))
            return fail("bad number"), false;
        if (s[pos] == '0') {
            pos++;
            // Strict: no leading zeros.
            if (pos < s.size()
                && std::isdigit(static_cast<unsigned char>(s[pos])))
                return fail("leading zero"), false;
        } else {
            while (pos < s.size()
                   && std::isdigit(
                       static_cast<unsigned char>(s[pos])))
                pos++;
        }
        if (pos < s.size() && s[pos] == '.') {
            pos++;
            if (pos >= s.size()
                || !std::isdigit(static_cast<unsigned char>(s[pos])))
                return fail("bad fraction"), false;
            while (pos < s.size()
                   && std::isdigit(
                       static_cast<unsigned char>(s[pos])))
                pos++;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            pos++;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                pos++;
            if (pos >= s.size()
                || !std::isdigit(static_cast<unsigned char>(s[pos])))
                return fail("bad exponent"), false;
            while (pos < s.size()
                   && std::isdigit(
                       static_cast<unsigned char>(s[pos])))
                pos++;
        }
        (void)start;
        return true;
    }

    bool
    parseObject()
    {
        const bool topLevel = depth == 0;
        depth++;
        pos++; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            pos++;
            depth--;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':'"), false;
            pos++;
            skipWs();
            const std::size_t valueStart = pos;
            if (!parseValue())
                return false;
            if (topLevel) {
                keys.push_back(key);
                values[key] = s.substr(valueStart, pos - valueStart);
            }
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                pos++;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                pos++;
                depth--;
                return true;
            }
            return fail("expected ',' or '}'"), false;
        }
    }

    bool
    parseArray()
    {
        depth++;
        pos++; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            pos++;
            depth--;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                pos++;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                pos++;
                depth--;
                return true;
            }
            return fail("expected ',' or ']'"), false;
        }
    }
};

} // namespace regpu::testutil

#endif // REGPU_TESTS_STRICT_JSON_HH
