// Fixture: the unordered-iteration bug class in JsonWriter form — a
// function that serializes through a writer (taken as a parameter, or
// built locally) while iterating an unordered container.
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace ropuf::fixture {

class JsonWriter;

void write_counters(JsonWriter& w,
                    const std::unordered_map<std::string, double>& counters) {
    w.begin_object();
    for (const auto& [name, value] : counters) {        // lint-expect: unordered-iteration
        w.key(name).number(value);
    }
    w.end_object();
}

std::string names_json(const std::unordered_set<std::string>& names) {
    JsonWriter w;
    w.begin_array();
    for (const auto& name : names) w.str(name);          // lint-expect: unordered-iteration
    w.end_array();
    return w.release();
}

} // namespace ropuf::fixture
