#ifndef CFC_CORE_JSON_H
#define CFC_CORE_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cfc::json {

/// Minimal recursive-descent JSON reader shared by the study parser
/// (analysis/study.cpp), the bench-report differ (tools/cfc_report.cpp)
/// and the trace validator (obs/trace.cpp). Numbers keep their raw text so
/// 64-bit counters round-trip exactly; \u escapes are supported up to
/// \u00ff (the canonical serializers only emit control-code escapes).
/// parse() throws std::invalid_argument on malformed input, including
/// arrays and objects nested deeper than kMaxDepth.
struct Node {
  enum class Type { Object, Array, String, Number, Bool, Null };
  Type type = Type::Null;
  std::map<std::string, Node> object;
  std::vector<Node> array;
  std::string text;  ///< String value / Number raw text
  bool boolean = false;

  [[nodiscard]] bool is_object() const { return type == Type::Object; }
  [[nodiscard]] bool is_array() const { return type == Type::Array; }

  /// Member lookup on an object; nullptr when absent (or not an object).
  [[nodiscard]] const Node* find(const char* key) const;
};

/// Deepest array/object nesting parse() accepts. The reader recurses once
/// per level, so the cap keeps hostile input from exhausting the stack;
/// the canonical payloads nest at most 6 deep.
inline constexpr int kMaxDepth = 64;

[[nodiscard]] Node parse(const std::string& src);

/// Appends `s` to `out` as the body of a JSON string literal: quotes,
/// backslashes and control bytes escaped (control bytes other than \n and
/// \t as \u00xx, which parse() reads back), every other byte verbatim.
void append_escaped(std::string& out, const std::string& s);

/// Typed accessors: a mistyped field (a string where a number belongs, a
/// number where a bool belongs) is malformed input and throws
/// std::invalid_argument, never silently parses to 0/false.
[[nodiscard]] const Node& member(const Node& obj, const char* key);
[[nodiscard]] int to_int(const Node& n);
[[nodiscard]] std::uint64_t to_u64(const Node& n);
[[nodiscard]] double to_double(const Node& n);
[[nodiscard]] bool to_bool(const Node& n);
[[nodiscard]] const std::string& to_string_field(const Node& n);

}  // namespace cfc::json

#endif  // CFC_CORE_JSON_H
