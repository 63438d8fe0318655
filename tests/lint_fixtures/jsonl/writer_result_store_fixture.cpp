// Fixture emitter in JsonWriter form for the jsonl-key-registry rule: the
// self-test treats every file named `*result_store_fixture.cpp` as an
// emitter. Registered keys written through key("...") must pass, a key
// whose name is only known at run time (a metric name) is not a schema
// key, and an unregistered literal key must be flagged on its line.
#include <map>
#include <string>

namespace ropuf::fixture {

class JsonWriter;

void write_record(JsonWriter& w, const std::map<std::string, double>& counters) {
    w.begin_object().key("v").integer(1).key("spec").str("demo");
    w.key("timing").begin_object().key("wall_ms").number(1.5).end_object();
    w.key("sneaky_new_key").integer(42);                 // lint-expect: jsonl-key-registry
    w.key("obs").begin_object().key("counters").begin_object();
    for (const auto& [name, value] : counters) w.key(name).number(value);
    w.end_object().key( "another_sneaky_key" ).end_object(); // lint-expect: jsonl-key-registry
    w.end_object();
}

} // namespace ropuf::fixture
