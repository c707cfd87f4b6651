#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "heuristics/registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "workload/paper_setup.hpp"

namespace rtsp::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser, enough to verify the exported trace conforms
// to the Chrome trace-event schema (we deliberately avoid re-using the
// repo's JsonWriter: the check must be independent of the code under test).

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is(Type t) const { return type == t; }
  const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    if (consume('}')) return v;
    do {
      JsonValue key = parse_string();
      expect(':');
      v.object.emplace(std::move(key.str), parse_value());
    } while (consume(','));
    expect('}');
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    if (consume(']')) return v;
    do {
      v.array.push_back(parse_value());
    } while (consume(','));
    expect(']');
    return v;
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::String;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 'r': v.str += '\r'; break;
          case 't': v.str += '\t'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            v.str += s_.substr(pos_ - 2, 6);  // kept verbatim; fine for tests
            pos_ += 4;
            break;
          }
          default: fail("bad escape");
        }
      } else {
        v.str += c;
      }
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) skip_ws();
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("expected bool");
    }
    return v;
  }

  JsonValue parse_null() {
    if (s_.compare(pos_, 4, "null") != 0) fail("expected null");
    pos_ += 4;
    return JsonValue{};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    clear_trace();
  }
  void TearDown() override {
    set_enabled(false);
    clear_trace();
    set_trace_capacity(std::size_t{1} << 16);
  }
};

TEST_F(ObsTraceTest, ScopedSpanRecordsCompleteEvent) {
  {
    ScopedSpan outer("outer", "k=v");
    ScopedSpan inner("inner");
  }
  const std::vector<TraceEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].detail, "k=v");
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::Complete);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  // The inner span closes first, so it cannot outlast the outer one.
  EXPECT_LE(events[1].ts_ns + events[1].dur_ns,
            events[0].ts_ns + events[0].dur_ns);
}

TEST_F(ObsTraceTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  {
    ScopedSpan span("invisible");
    trace_counter("invisible.counter", 1);
  }
  EXPECT_TRUE(collect_trace().empty());
}

TEST_F(ObsTraceTest, CapacityBoundsBufferAndCountsDrops) {
  set_trace_capacity(4);
  for (int i = 0; i < 10; ++i) trace_counter("test.cap", i);
  EXPECT_EQ(collect_trace().size(), 4u);
  EXPECT_EQ(trace_dropped(), 6u);
  clear_trace();  // also zeroes the dropped count
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST_F(ObsTraceTest, ExportedTraceParsesAsChromeTraceEvents) {
  {
    ScopedSpan span("phase.one", "detail text with \"quotes\" and \\slashes");
    trace_counter("candidates", 42);
  }
  { ScopedSpan span("phase.two"); }

  std::ostringstream out;
  write_chrome_trace(out, collect_trace());

  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(out.str()).parse());
  ASSERT_TRUE(root.is(JsonValue::Type::Object));
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(JsonValue::Type::Array));
  ASSERT_EQ(events->array.size(), 3u);

  std::size_t spans = 0;
  std::size_t counters = 0;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is(JsonValue::Type::Object));
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    const JsonValue* ts = e.find("ts");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    EXPECT_TRUE(name->is(JsonValue::Type::String));
    EXPECT_TRUE(pid->is(JsonValue::Type::Number));
    EXPECT_TRUE(tid->is(JsonValue::Type::Number));
    EXPECT_TRUE(ts->is(JsonValue::Type::Number));
    EXPECT_GE(ts->number, 0.0);
    ASSERT_TRUE(ph->is(JsonValue::Type::String));
    if (ph->str == "X") {
      ++spans;
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_TRUE(dur->is(JsonValue::Type::Number));
      EXPECT_GE(dur->number, 0.0);
    } else {
      ASSERT_EQ(ph->str, "C");
      ++counters;
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* value = args->find("value");
      ASSERT_NE(value, nullptr);
      EXPECT_TRUE(value->is(JsonValue::Type::Number));
      EXPECT_EQ(value->number, 42.0);
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(counters, 1u);
}

/// Instrumentation must never change algorithm output: the same pipeline,
/// seeds and instance produce bit-identical schedules with tracing on and
/// off.
TEST_F(ObsTraceTest, TracingDoesNotChangeSchedules) {
  PaperSetup setup;
  setup.servers = 30;
  setup.objects = 200;

  for (const char* spec : {"GOLCF+H1+H2+OP1", "GOLCF+OP1"}) {
    const Pipeline pipeline = make_pipeline(spec);
    const auto run_once = [&] {
      Rng inst_rng(7);
      const Instance inst = make_equal_size_instance(setup, 2, inst_rng);
      Rng algo_rng(11);
      return pipeline.run(inst.model, inst.x_old, inst.x_new, algo_rng);
    };

    set_enabled(false);
    const Schedule plain = run_once();
    set_enabled(true);
    clear_trace();
    const Schedule traced = run_once();

    ASSERT_EQ(plain.size(), traced.size()) << spec;
    for (std::size_t u = 0; u < plain.size(); ++u) {
      ASSERT_TRUE(plain[u] == traced[u]) << spec << " diverges at " << u;
    }
#if RTSP_OBS_ENABLED
    // The traced run actually recorded the improver spans.
    bool saw_improver_span = false;
    for (const TraceEvent& e : collect_trace()) {
      if (e.name.rfind("improve.", 0) == 0) saw_improver_span = true;
    }
    EXPECT_TRUE(saw_improver_span) << spec;
#endif
  }
}

}  // namespace
}  // namespace rtsp::obs
