#include "obs/json.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <string>

namespace limitless
{

void
jsonEscape(std::ostream &os, std::string_view s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

JsonWriter &
JsonWriter::open(char bracket, int indent, bool compact)
{
    member();
    _os << bracket;
    const bool inherited = !_open.empty() && _open.back().compact;
    _open.push_back({bracket == '{' ? '}' : ']', indent,
                     compact || inherited, true});
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    const Frame f = _open.back();
    _open.pop_back();
    if (!f.empty && f.indent >= 0)
        _os << '\n' << std::string(std::max(f.indent - 2, 0), ' ');
    _os << f.close;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    member();
    jsonEscape(_os, k);
    _os << (_open.back().compact ? ":" : ": ");
    _afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    member();
    jsonEscape(_os, s);
    return *this;
}

JsonWriter &
JsonWriter::exact(double v)
{
    member();
    const auto prec =
        _os.precision(std::numeric_limits<double>::max_digits10);
    _os << v;
    _os.precision(prec);
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view text)
{
    member();
    _os << text;
    return *this;
}

void
JsonWriter::member()
{
    if (_afterKey) {
        _afterKey = false;
        return;
    }
    if (_open.empty())
        return;
    Frame &f = _open.back();
    if (!f.empty)
        _os << ',';
    const int indent = _break >= 0 ? _break : f.indent;
    _break = -1;
    if (indent >= 0)
        _os << '\n' << std::string(indent, ' ');
    else if (!f.empty && !f.compact)
        _os << ' ';
    f.empty = false;
}

namespace
{

/** Recursive-descent JSON checker over a string. */
class Validator
{
  public:
    explicit Validator(const std::string &text) : _t(text) {}

    bool
    run(std::string *err)
    {
        skipWs();
        if (!value()) {
            fail(err);
            return false;
        }
        skipWs();
        if (_pos != _t.size()) {
            _why = "trailing garbage after value";
            fail(err);
            return false;
        }
        return true;
    }

  private:
    void
    fail(std::string *err) const
    {
        if (err)
            *err = "offset " + std::to_string(_pos) + ": " + _why;
    }

    char peek() const { return _pos < _t.size() ? _t[_pos] : '\0'; }
    bool eat(char c) { return peek() == c && (++_pos, true); }

    void
    skipWs()
    {
        while (_pos < _t.size() &&
               (_t[_pos] == ' ' || _t[_pos] == '\t' || _t[_pos] == '\n' ||
                _t[_pos] == '\r'))
            ++_pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t i = 0;
        while (word[i]) {
            if (_pos + i >= _t.size() || _t[_pos + i] != word[i]) {
                _why = "bad literal";
                return false;
            }
            ++i;
        }
        _pos += i;
        return true;
    }

    bool
    string()
    {
        if (!eat('"')) {
            _why = "expected string";
            return false;
        }
        while (_pos < _t.size()) {
            const char c = _t[_pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20) {
                _why = "raw control character in string";
                return false;
            }
            if (c == '\\') {
                if (_pos >= _t.size())
                    break;
                const char e = _t[_pos++];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        if (_pos >= _t.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                _t[_pos]))) {
                            _why = "bad \\u escape";
                            return false;
                        }
                        ++_pos;
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    _why = "bad escape";
                    return false;
                }
            }
        }
        _why = "unterminated string";
        return false;
    }

    bool
    number()
    {
        const std::size_t start = _pos;
        eat('-');
        if (!std::isdigit(static_cast<unsigned char>(peek()))) {
            _why = "bad number";
            return false;
        }
        if (!eat('0'))
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        if (eat('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek()))) {
                _why = "bad fraction";
                return false;
            }
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++_pos;
            if (peek() == '+' || peek() == '-')
                ++_pos;
            if (!std::isdigit(static_cast<unsigned char>(peek()))) {
                _why = "bad exponent";
                return false;
            }
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        return _pos > start;
    }

    bool
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        eat('{');
        skipWs();
        if (eat('}'))
            return true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!eat(':')) {
                _why = "expected ':'";
                return false;
            }
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (eat('}'))
                return true;
            if (!eat(',')) {
                _why = "expected ',' or '}'";
                return false;
            }
        }
    }

    bool
    array()
    {
        eat('[');
        skipWs();
        if (eat(']'))
            return true;
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (eat(']'))
                return true;
            if (!eat(',')) {
                _why = "expected ',' or ']'";
                return false;
            }
        }
    }

    const std::string &_t;
    std::size_t _pos = 0;
    const char *_why = "invalid value";
};

} // namespace

bool
jsonValidate(const std::string &text, std::string *err)
{
    return Validator(text).run(err);
}

} // namespace limitless
