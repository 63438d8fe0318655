#include "ropuf/obs/json_writer.hpp"

#include <charconv>

namespace ropuf::obs {

void append_trace_escaped(std::string& out, std::string_view text) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            const auto byte = static_cast<unsigned char>(c);
            if (byte < 0x20) {
                out += "\\u00";
                out += kHex[byte >> 4];
                out += kHex[byte & 0xf];
            } else {
                out += c;
            }
        }
        }
    }
}

void JsonWriter::separate() {
    if (need_comma_) out_ += ',';
}

JsonWriter& JsonWriter::open(char bracket) {
    separate();
    out_ += bracket;
    need_comma_ = false;
    return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::begin_object() { return open('{'); }
JsonWriter& JsonWriter::end_object() { return close('}'); }
JsonWriter& JsonWriter::begin_array() { return open('['); }
JsonWriter& JsonWriter::end_array() { return close(']'); }

JsonWriter& JsonWriter::key(std::string_view name) {
    separate();
    out_ += '"';
    append_trace_escaped(out_, name);
    out_ += "\":";
    need_comma_ = false;
    return *this;
}

JsonWriter& JsonWriter::str(std::string_view value) {
    separate();
    out_ += '"';
    append_trace_escaped(out_, value);
    out_ += '"';
    need_comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::boolean(bool value) { return raw(value ? "true" : "false"); }

JsonWriter& JsonWriter::raw(std::string_view json) {
    separate();
    out_ += json;
    need_comma_ = true;
    return *this;
}

namespace {

// std::to_chars with a precision formats exactly like printf's %.*g / %.*f
// in the "C" locale. The room reserved covers any double in either form
// (fixed needs up to 309 integer digits), so the conversion never fails.
void append_double(std::string& out, double value, std::chars_format format, int precision) {
    const std::size_t at = out.size();
    out.resize(at + 330 + static_cast<std::size_t>(precision));
    char* const first = out.data() + at;
    const auto result = std::to_chars(first, out.data() + out.size(), value, format, precision);
    out.resize(at + static_cast<std::size_t>(result.ptr - first));
}

} // namespace

JsonWriter& JsonWriter::number(double value) {
    separate();
    append_double(out_, value, std::chars_format::general, 17);
    need_comma_ = true;
    return *this;
}

JsonWriter& JsonWriter::fixed(double value, int decimals) {
    separate();
    append_double(out_, value, std::chars_format::fixed, decimals);
    need_comma_ = true;
    return *this;
}

} // namespace ropuf::obs
