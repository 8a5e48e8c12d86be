/**
 * @file
 * JSON emission and validation for every export. Deliberately tiny: the
 * simulator only ever *writes* JSON (trace-event streams, stats and
 * bench exports), and the only reading we do is a structural validity
 * check used by tests and the CI smoke run.
 */

#ifndef LIMITLESS_OBS_JSON_HH
#define LIMITLESS_OBS_JSON_HH

#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace limitless
{

/** Write @p s as a JSON string literal (quotes and escapes included). */
void jsonEscape(std::ostream &os, std::string_view s);

/**
 * Streaming JSON writer: the one place that places commas, quotes keys,
 * escapes strings and picks float precision, for every export.
 *
 *  - Members are separated by ", " and keys by ": ". A compact
 *    container, and everything nested in it, uses "," and ":".
 *  - A container opened with an indent puts each member on its own line
 *    at that indent, and its closing bracket on a new line two spaces to
 *    the left. An empty container prints "{}" or "[]".
 *  - br(n) puts the next member on a new line at indent n, once.
 *  - Numbers print at the stream's precision; exact() prints a double
 *    at max_digits10 and leaves the stream's precision as it was.
 */
class JsonWriter
{
  public:
    enum Compact { compact }; ///< tag for object(compact)

    explicit JsonWriter(std::ostream &os) : _os(os) {}

    /** Open a container: inline (indent < 0), one member per line at
     *  @p indent, or compact. end() closes the innermost one. */
    JsonWriter &object(int indent = -1) { return open('{', indent, false); }
    JsonWriter &object(Compact) { return open('{', -1, true); }
    JsonWriter &array(int indent = -1) { return open('[', indent, false); }
    JsonWriter &end();

    /** Start an object member; the next value or container is its. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view s);
    template <typename T>
        requires std::is_arithmetic_v<T>
    JsonWriter &
    value(T v)
    {
        member();
        if constexpr (std::is_same_v<T, bool>)
            _os << (v ? "true" : "false");
        else
            _os << +v; // + prints char-sized integers as numbers
        return *this;
    }
    /** @p v at full round-trip precision. */
    JsonWriter &exact(double v);
    /** Pre-formatted JSON text, written as one value. */
    JsonWriter &raw(std::string_view text);

    template <typename T>
    JsonWriter &field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    JsonWriter &br(int indent) { _break = indent; return *this; }

  private:
    struct Frame
    {
        char close;
        int indent; ///< < 0: members inline
        bool compact;
        bool empty;
    };

    JsonWriter &open(char bracket, int indent, bool compact);
    /** Separator before a member; nothing right after a key. */
    void member();

    std::ostream &_os;
    std::vector<Frame> _open;
    bool _afterKey = false;
    int _break = -1; ///< indent of the pending br(), or -1
};

/**
 * Structural JSON validity check (RFC 8259 grammar, no semantic limits).
 * @return true when @p text is exactly one valid JSON value; on failure
 *         @p err (if non-null) receives a byte offset and reason.
 */
bool jsonValidate(const std::string &text, std::string *err = nullptr);

} // namespace limitless

#endif // LIMITLESS_OBS_JSON_HH
