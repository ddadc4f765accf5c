// The canonical StudyResult JSON serializer: golden-file schema lock plus
// full round-trip (serialize -> parse -> serialize, byte-identical). The
// golden file freezes the "cfc.study.v1" schema — an intentional schema
// change must update tests/golden/study_result.json in the same commit.
// The shared JSON reader (core/json.h) must reject hostile input cleanly:
// a nesting cap, an escaper that round-trips every byte, and a seeded
// mutation test over the study and trace parsers.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "../bench/bench_util.h"
#include "analysis/study.h"
#include "core/json.h"
#include "obs/trace.h"

namespace cfc {
namespace {

ComplexityReport report(int steps, int registers, int read_steps,
                        int write_steps, int read_registers,
                        int write_registers, int atomicity,
                        bool truncated = false) {
  ComplexityReport r;
  r.steps = steps;
  r.registers = registers;
  r.read_steps = read_steps;
  r.write_steps = write_steps;
  r.read_registers = read_registers;
  r.write_registers = write_registers;
  r.atomicity = atomicity;
  r.truncated = truncated;
  return r;
}

/// The fixture frozen in tests/golden/study_result.json: every field of
/// the schema populated with distinct values.
StudyResult golden_fixture() {
  StudyResult r;
  r.subject = "peterson-2p";
  r.kind = StudyKind::Mutex;
  r.n = 2;
  r.sessions = 1;
  r.has_cf = true;
  r.cf = report(7, 3, 3, 4, 2, 3, 1);
  r.cf_entry = report(5, 3, 3, 2, 2, 3, 1);
  r.cf_exit = report(2, 1, 0, 2, 0, 1, 1);
  r.measured_atomicity = 1;
  r.has_wc = true;
  r.wc_strategy = SearchStrategy::Exhaustive;
  r.wc_reduction = ReductionPolicy::SourceDpor;
  r.races_detected = 21;
  r.backtrack_points = 9;
  r.sleep_blocked = 4;
  r.cache_hits = 17;
  r.work_items = 6;
  r.restore_marks = 33;
  r.wc = report(14, 4, 6, 8, 3, 4, 1, true);
  r.wc_entry = report(12, 3, 6, 6, 3, 3, 1, true);
  r.wc_exit = report(2, 1, 0, 2, 0, 1, 1);
  r.schedules_tried = 12;
  r.states_visited = 345;
  r.violations = 0;
  r.truncated = true;
  r.certified = true;
  r.plan_ms = 0.2;
  r.execute_ms = 1.1;
  r.merge_ms = 0.2;
  r.wall_ms = 1.5;
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_reports_equal(const ComplexityReport& a,
                          const ComplexityReport& b, const char* what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.registers, b.registers) << what;
  EXPECT_EQ(a.read_steps, b.read_steps) << what;
  EXPECT_EQ(a.write_steps, b.write_steps) << what;
  EXPECT_EQ(a.read_registers, b.read_registers) << what;
  EXPECT_EQ(a.write_registers, b.write_registers) << what;
  EXPECT_EQ(a.atomicity, b.atomicity) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
}

TEST(StudyJson, MatchesGoldenFile) {
  const std::string golden =
      read_file(std::string(CFC_SOURCE_DIR) + "/tests/golden/study_result.json");
  // The golden file ends with a trailing newline (editor/VCS convention);
  // the serializer emits none.
  EXPECT_EQ(to_json(golden_fixture()) + "\n", golden);
}

TEST(StudyJson, RoundTripsByteIdentically) {
  const StudyResult original = golden_fixture();
  const std::string json = to_json(original);
  const StudyResult parsed = study_from_json(json);
  EXPECT_EQ(to_json(parsed), json);

  EXPECT_EQ(parsed.subject, original.subject);
  EXPECT_EQ(parsed.kind, original.kind);
  EXPECT_EQ(parsed.n, original.n);
  EXPECT_EQ(parsed.sessions, original.sessions);
  EXPECT_EQ(parsed.has_cf, original.has_cf);
  expect_reports_equal(parsed.cf, original.cf, "cf");
  expect_reports_equal(parsed.cf_entry, original.cf_entry, "cf_entry");
  expect_reports_equal(parsed.cf_exit, original.cf_exit, "cf_exit");
  EXPECT_EQ(parsed.measured_atomicity, original.measured_atomicity);
  EXPECT_EQ(parsed.has_wc, original.has_wc);
  EXPECT_EQ(parsed.wc_strategy, original.wc_strategy);
  EXPECT_EQ(parsed.wc_reduction, original.wc_reduction);
  EXPECT_EQ(parsed.races_detected, original.races_detected);
  EXPECT_EQ(parsed.backtrack_points, original.backtrack_points);
  EXPECT_EQ(parsed.sleep_blocked, original.sleep_blocked);
  EXPECT_EQ(parsed.cache_hits, original.cache_hits);
  EXPECT_EQ(parsed.work_items, original.work_items);
  EXPECT_EQ(parsed.restore_marks, original.restore_marks);
  expect_reports_equal(parsed.wc, original.wc, "wc");
  expect_reports_equal(parsed.wc_entry, original.wc_entry, "wc_entry");
  expect_reports_equal(parsed.wc_exit, original.wc_exit, "wc_exit");
  EXPECT_EQ(parsed.schedules_tried, original.schedules_tried);
  EXPECT_EQ(parsed.states_visited, original.states_visited);
  EXPECT_EQ(parsed.violations, original.violations);
  EXPECT_EQ(parsed.truncated, original.truncated);
  EXPECT_EQ(parsed.certified, original.certified);
  EXPECT_DOUBLE_EQ(parsed.plan_ms, original.plan_ms);
  EXPECT_DOUBLE_EQ(parsed.execute_ms, original.execute_ms);
  EXPECT_DOUBLE_EQ(parsed.merge_ms, original.merge_ms);
  EXPECT_DOUBLE_EQ(parsed.wall_ms, original.wall_ms);
}

TEST(StudyJson, AbsentMeasurementsSerializeAsNull) {
  StudyResult r;
  r.subject = "tas-scan";
  r.kind = StudyKind::Naming;
  r.n = 8;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"cf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"wc\": null"), std::string::npos);

  const StudyResult parsed = study_from_json(json);
  EXPECT_FALSE(parsed.has_cf);
  EXPECT_FALSE(parsed.has_wc);
  EXPECT_EQ(parsed.kind, StudyKind::Naming);
  EXPECT_EQ(to_json(parsed), json);
}

TEST(StudyJson, TimingIsOptionalAndExcludable) {
  const StudyResult r = golden_fixture();
  const std::string without =
      to_json(r, StudyJsonOptions{.include_timing = false});
  EXPECT_EQ(without.find("wall_ms"), std::string::npos);
  EXPECT_EQ(without.find("\"timing\""), std::string::npos);
  // Parsing the timing-free form succeeds and defaults the phases to 0.
  const StudyResult parsed = study_from_json(without);
  EXPECT_DOUBLE_EQ(parsed.wall_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.plan_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.execute_ms, 0.0);
  EXPECT_DOUBLE_EQ(parsed.merge_ms, 0.0);

  // Pre-timing payloads carry wall_ms but no timing object; they parse.
  std::string no_phases = to_json(r);
  const std::string timing_line =
      "  \"timing\": {\"plan_ms\": 0.200, \"execute_ms\": 1.100, "
      "\"merge_ms\": 0.200},\n";
  const std::size_t at = no_phases.find(timing_line);
  ASSERT_NE(at, std::string::npos);
  no_phases.erase(at, timing_line.size());
  const StudyResult legacy = study_from_json(no_phases);
  EXPECT_DOUBLE_EQ(legacy.wall_ms, 1.5);
  EXPECT_DOUBLE_EQ(legacy.plan_ms, 0.0);
}

TEST(StudyJson, BigCountersSurviveExactly) {
  StudyResult r = golden_fixture();
  r.states_visited = 9'007'199'254'740'993ull;  // 2^53 + 1: breaks doubles
  r.schedules_tried = 18'446'744'073'709'551'615ull;  // 2^64 - 1
  r.races_detected = 18'446'744'073'709'551'614ull;
  r.backtrack_points = 9'007'199'254'740'995ull;
  const StudyResult parsed = study_from_json(to_json(r));
  EXPECT_EQ(parsed.states_visited, r.states_visited);
  EXPECT_EQ(parsed.schedules_tried, r.schedules_tried);
  EXPECT_EQ(parsed.races_detected, r.races_detected);
  EXPECT_EQ(parsed.backtrack_points, r.backtrack_points);
}

TEST(StudyJson, ReductionIsOptionalForPrePorPayloads) {
  // Pre-POR cfc.study.v1 payloads carry no "reduction" member; they must
  // keep parsing, defaulting to policy off with zero counters.
  std::string json = to_json(golden_fixture());
  const std::size_t at = json.find("    \"reduction\": ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = json.find('\n', at);
  json.erase(at, end - at + 1);
  const StudyResult parsed = study_from_json(json);
  EXPECT_EQ(parsed.wc_reduction, ReductionPolicy::Off);
  EXPECT_EQ(parsed.races_detected, 0u);
  EXPECT_EQ(parsed.backtrack_points, 0u);
  EXPECT_EQ(parsed.sleep_blocked, 0u);
  EXPECT_EQ(parsed.work_items, 0u);
  EXPECT_EQ(parsed.restore_marks, 0u);

  // A present-but-bogus policy is malformed input, not a silent default.
  std::string bad = to_json(golden_fixture());
  bad.replace(bad.find("source-dpor"), 11, "bogus-dpor!");
  EXPECT_THROW((void)study_from_json(bad), std::invalid_argument);
}

TEST(StudyJson, ParallelCountersOptionalForPreParallelPayloads) {
  // Payloads written before the parallel-DPOR counters carry a reduction
  // object without work_items/restore_marks; they parse with zeros while
  // the pre-existing counters survive untouched.
  std::string json = to_json(golden_fixture());
  const std::string added = ", \"work_items\": 6, \"restore_marks\": 33";
  const std::size_t at = json.find(added);
  ASSERT_NE(at, std::string::npos);
  json.erase(at, added.size());
  const StudyResult parsed = study_from_json(json);
  EXPECT_EQ(parsed.wc_reduction, ReductionPolicy::SourceDpor);
  EXPECT_EQ(parsed.races_detected, 21u);
  EXPECT_EQ(parsed.work_items, 0u);
  EXPECT_EQ(parsed.restore_marks, 0u);
}

TEST(StudyJson, StatefulCountersOptionalForPreStatefulPayloads) {
  // Payloads written before stateful DPOR carry a reduction object without
  // cache_hits; they parse with zero cache hits.
  std::string json = to_json(golden_fixture());
  const std::string ch = ", \"cache_hits\": 17";
  const std::size_t cat = json.find(ch);
  ASSERT_NE(cat, std::string::npos);
  json.erase(cat, ch.size());
  const StudyResult parsed = study_from_json(json);
  EXPECT_EQ(parsed.wc_reduction, ReductionPolicy::SourceDpor);
  EXPECT_EQ(parsed.cache_hits, 0u);
  EXPECT_EQ(parsed.races_detected, 21u);
}

TEST(StudyJson, PayloadWithRetiredFrontierClampedStillParses) {
  // Earlier cfc.study.v1 writers closed the wc object with a
  // "frontier_clamped" flag. The parser ignores it, so such a payload
  // parses to the same result and re-serializes to today's form.
  std::string json = to_json(golden_fixture());
  const std::string certified = "\"certified\": true";
  const std::size_t at = json.find(certified);
  ASSERT_NE(at, std::string::npos);
  json.insert(at + certified.size(), ",\n    \"frontier_clamped\": true");
  const StudyResult parsed = study_from_json(json);
  EXPECT_TRUE(parsed.certified);
  EXPECT_EQ(to_json(parsed), to_json(golden_fixture()));
}

TEST(StudyJson, PayloadWithRetiredReductionKeysStillParses) {
  // The previous cfc.study.v1 writer also emitted the configured policy
  // ("requested", here a since-retired one) and a "static_refined_pairs"
  // counter. Both keys were optional and the parser ignores members it
  // does not know, so such a payload parses to the same result and
  // re-serializes to today's form.
  std::string json = to_json(golden_fixture());
  const std::string policy = "\"policy\": \"source-dpor\"";
  const std::size_t pat = json.find(policy);
  ASSERT_NE(pat, std::string::npos);
  json.insert(pat + policy.size(), ", \"requested\": \"hybrid\"");
  const std::string marks = "\"restore_marks\": 33";
  const std::size_t mat = json.find(marks);
  ASSERT_NE(mat, std::string::npos);
  json.insert(mat + marks.size(), ", \"static_refined_pairs\": 5");
  const StudyResult parsed = study_from_json(json);
  EXPECT_EQ(parsed.wc_reduction, ReductionPolicy::SourceDpor);
  EXPECT_EQ(parsed.restore_marks, 33u);
  EXPECT_EQ(to_json(parsed), to_json(golden_fixture()));
}

TEST(StudyJson, EscapesSubjectStrings) {
  StudyResult r;
  r.subject = "weird\"name\\with\ncontrol\tchars";
  const StudyResult parsed = study_from_json(to_json(r));
  EXPECT_EQ(parsed.subject, r.subject);
}

TEST(StudyJson, ArraySerializerEmitsEveryResult) {
  const std::vector<StudyResult> results = {golden_fixture(),
                                            golden_fixture()};
  const std::string json = to_json(results);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Two schema headers: two serialized studies.
  std::size_t count = 0;
  for (std::size_t at = json.find("cfc.study.v1"); at != std::string::npos;
       at = json.find("cfc.study.v1", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(StudyJson, RejectsMalformedInput) {
  EXPECT_THROW((void)study_from_json(""), std::invalid_argument);
  EXPECT_THROW((void)study_from_json("[]"), std::invalid_argument);
  EXPECT_THROW((void)study_from_json("{\"schema\": \"cfc.study.v2\"}"),
               std::invalid_argument);
  EXPECT_THROW((void)study_from_json("{\"schema\": \"cfc.study.v1\"}"),
               std::invalid_argument);  // missing fields
  std::string truncated = to_json(golden_fixture());
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)study_from_json(truncated), std::invalid_argument);
  // Non-hex \u escapes are rejected, not silently parsed as 0.
  std::string bad_escape = to_json(golden_fixture());
  bad_escape.replace(bad_escape.find("peterson"), 8, "p\\uZZZZn");
  EXPECT_THROW((void)study_from_json(bad_escape), std::invalid_argument);
  // Code points beyond ÿ would be corrupted by the single-byte
  // decode, so they are rejected rather than mangled.
  std::string wide_escape = to_json(golden_fixture());
  wide_escape.replace(wide_escape.find("peterson"), 8, "p\\u0394\\u0395");
  EXPECT_THROW((void)study_from_json(wide_escape), std::invalid_argument);
  // Mistyped fields are malformed input, not zeros.
  std::string mistyped = to_json(golden_fixture());
  mistyped.replace(mistyped.find("\"n\": 2"), 6, "\"n\": \"two\"");
  EXPECT_THROW((void)study_from_json(mistyped), std::invalid_argument);
  // Integer fields take the whole token as a decimal integer in range: no
  // wrapped negatives, no truncated fractions or exponents, no overflow.
  for (const auto& [key, bad] : {std::pair<std::string, std::string>{
                                     "\"states_visited\": ", "-1"},
                                 {"\"states_visited\": ",
                                  "18446744073709551616"},
                                 {"\"n\": ", "4294967296"},
                                 {"\"steps\": ", "1.5"},
                                 {"\"steps\": ", "1e3"}}) {
    std::string malformed = to_json(golden_fixture());
    const std::size_t at = malformed.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t value = at + key.size();
    malformed.replace(value, malformed.find_first_of(",}\n", value) - value,
                      bad);
    EXPECT_THROW((void)study_from_json(malformed), std::invalid_argument)
        << key << bad;
  }
  // Nesting past json::kMaxDepth is rejected before the recursive reader
  // can exhaust the stack.
  std::string deep_object;
  for (int i = 0; i < 100000; ++i) {
    deep_object += "{\"a\":";
  }
  for (const std::string& deep : {std::string(100000, '['), deep_object}) {
    EXPECT_THROW((void)json::parse(deep), std::invalid_argument);
    EXPECT_THROW((void)study_from_json(deep), std::invalid_argument);
  }
  // Retired reduction policies are unknown policies.
  for (const char* retired : {"hybrid", "sleep-lite"}) {
    std::string old_policy = to_json(golden_fixture());
    old_policy.replace(old_policy.find("source-dpor"), 11, retired);
    EXPECT_THROW((void)study_from_json(old_policy), std::invalid_argument)
        << retired;
  }
}

TEST(Json, NestingCapIsExact) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth)));
  EXPECT_THROW((void)json::parse(nested(json::kMaxDepth + 1)),
               std::invalid_argument);
  // Depth counts open containers, not containers seen: long flat arrays of
  // shallow members stay well inside the cap.
  std::string wide = "[";
  for (int i = 0; i < 1000; ++i) {
    wide += i == 0 ? "[[]]" : ",[[]]";
  }
  wide += "]";
  EXPECT_EQ(json::parse(wide).array.size(), 1000u);
}

TEST(Json, EscaperRoundTripsEveryByte) {
  std::string all;
  for (int b = 0x01; b <= 0xff; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    std::string literal = "\"";
    json::append_escaped(literal, one);
    literal += '"';
    EXPECT_EQ(json::parse(literal).text, one) << "byte " << b;
  }
  std::string literal = "\"";
  json::append_escaped(literal, all);
  literal += '"';
  EXPECT_EQ(json::parse(literal).text, all);
}

/// One seeded edit of `text`: replace a byte, delete a short run, insert a
/// byte, or truncate. New bytes come half from JSON's structural alphabet
/// (so edits reach past the first syntax check) and half from all bytes.
void mutate(std::string& text, std::mt19937_64& rng) {
  static const std::string kAlphabet = "{}[]\":,\\-+.eE0123456789 tfnul";
  const auto below = [&rng](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  };
  const auto fresh = [&]() {
    return below(2) == 0 ? kAlphabet[below(kAlphabet.size())]
                         : static_cast<char>(below(256));
  };
  if (text.empty()) {
    text += fresh();
    return;
  }
  const std::size_t at = below(text.size());
  switch (below(4)) {
    case 0:
      text[at] = fresh();
      break;
    case 1:
      text.erase(at, 1 + below(8));
      break;
    case 2:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), fresh());
      break;
    default:
      text.resize(at);
      break;
  }
}

TEST(Json, SeededMutantsParseOrReject) {
  // Every mutant of a valid payload parses, throws std::invalid_argument,
  // or (trace payloads) fails validation; any other exception is a bug.
  const std::string study = read_file(std::string(CFC_SOURCE_DIR) +
                                      "/tests/golden/study_result.json");
  ASSERT_NO_THROW((void)study_from_json(study));
  const std::string trace = R"({"traceEvents": [
    {"name": "a", "cat": "c", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
    {"name": "b", "cat": "c", "ph": "X", "ts": 2, "dur": 3, "pid": 1, "tid": 1}
  ]})";
  ASSERT_TRUE(obs::check_trace_json(trace, nullptr));

  constexpr int kMutants = 10000;  // per payload
  int study_parsed = 0;
  int trace_parsed = 0;
  std::mt19937_64 rng(21);
  for (int i = 0; i < kMutants; ++i) {
    const int edits = 1 + static_cast<int>(rng() % 3);
    std::string mutant = study;
    for (int e = 0; e < edits; ++e) {
      mutate(mutant, rng);
    }
    try {
      (void)study_from_json(mutant);
      ++study_parsed;
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "study mutant " << i << " threw " << ex.what();
    }
    mutant = trace;
    for (int e = 0; e < edits; ++e) {
      mutate(mutant, rng);
    }
    try {
      trace_parsed += obs::check_trace_json(mutant, nullptr) ? 1 : 0;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "trace mutant " << i << " threw " << ex.what();
    }
  }
  // Both outcomes occur: the edits neither all miss nor all break parsing.
  EXPECT_GT(study_parsed, 0);
  EXPECT_LT(study_parsed, kMutants);
  EXPECT_GT(trace_parsed, 0);
  EXPECT_LT(trace_parsed, kMutants);
}

TEST(StudyJsonDeathTest, BenchReductionFlagRejectsRetiredPolicies) {
  for (const char* retired : {"hybrid", "sleep-lite"}) {
    std::string prog = "bench";
    std::string flag = std::string("--reduction=") + retired;
    char* argv[] = {prog.data(), flag.data()};
    EXPECT_EXIT((void)bench::BenchOptions::parse(2, argv),
                ::testing::ExitedWithCode(2), "invalid --reduction")
        << retired;
  }
}

}  // namespace
}  // namespace cfc
