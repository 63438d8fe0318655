// Fixture: the two idioms that must stay clean — (a) iterating an ORDERED
// container in a serializer, string-building or JsonWriter form, (b)
// iterating an unordered container in a function that never serializes
// (order-insensitive aggregation).
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

void append_json_escaped(std::string& out, const std::string& value);

namespace ropuf::fixture {

void serialize_sorted(std::string& out,
                      const std::map<std::string, double>& counters) {
    for (const auto& entry : counters) {
        append_json_escaped(out, entry.first);
    }
}

class JsonWriter;

void write_sorted(JsonWriter& w, const std::map<std::string, double>& counters) {
    for (const auto& [name, value] : counters) w.key(name).number(value);
}

double sum_values(const std::unordered_map<std::string, double>& counters) {
    double total = 0.0;
    // Fine: addition is commutative, nothing is serialized here.
    for (const auto& entry : counters) {
        total += entry.second;
    }
    return total;
}

void serialize_copied(std::string& out,
                      const std::unordered_map<std::string, double>& counters) {
    // The sanctioned fix: copy into an ordered view, then emit.
    const std::map<std::string, double> sorted(counters.begin(), counters.end());
    for (const auto& entry : sorted) {
        append_json_escaped(out, entry.first);
    }
}

} // namespace ropuf::fixture
