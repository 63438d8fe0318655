// ropuf::obs — the one JSON encoder.
//
// Every JSON byte the library and its benches write goes through
// JsonWriter: xp result records, fleet shard lines, attack and campaign
// reports, the metrics dump, Chrome traces and their span args. The
// determinism guarantees (golden files, e2ebench pins, resume == clean
// run) are byte comparisons of that output, so the writer owns the three
// decisions every emitter shares — where commas go, how strings are
// escaped, how numbers are spelled — and has no options: no indentation,
// no pretty-printing, no precision setting.
//
// Doubles have exactly two spellings: number() is the round-trip form
// ("%.17g"), fixed() the "%.<decimals>f" form of the report fields that
// have always printed fixed decimals. Integers are written exactly.
//
// The writer keeps one "a value was just written" flag instead of a
// nesting stack, so keys may also be written outside any object: that
// yields a bare `"k":v,...` member list for callers that splice members
// into a larger document.
//
// It lives in obs because obs is the one layer that core, xp and fleet
// may all include.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace ropuf::obs {

/// Escapes `text` into `out` as JSON string content (no surrounding
/// quotes): `"` and `\`, the short forms \b \f \n \r \t, and \u00XX for
/// every other control character. The one JSON string escaper;
/// JsonWriter::key() and str() go through it. (The name predates the
/// writer and stays because the e2ebench harness calls it.)
void append_trace_escaped(std::string& out, std::string_view text);

class JsonWriter {
public:
    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /// An object member's name; the next call writes its value.
    JsonWriter& key(std::string_view name);

    JsonWriter& str(std::string_view value);
    JsonWriter& boolean(bool value);
    template <class Int>
        requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
    JsonWriter& integer(Int value) {
        return raw(std::to_string(value));
    }
    JsonWriter& number(double value);              ///< "%.17g": round-trips exactly
    JsonWriter& fixed(double value, int decimals); ///< "%.<decimals>f"

    /// A value that is already encoded JSON (a nested report, trace span
    /// args), written verbatim.
    JsonWriter& raw(std::string_view json);

    /// The encoded text; the writer is spent afterwards.
    std::string release() { return std::move(out_); }

private:
    JsonWriter& open(char bracket);
    JsonWriter& close(char bracket);
    void separate();

    std::string out_;
    bool need_comma_ = false;
};

} // namespace ropuf::obs
