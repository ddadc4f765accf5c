#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cfc::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& src) : src_(src) {}

  Node parse() {
    Node node = value();
    skip_ws();
    if (pos_ != src_.size()) {
      fail("trailing content");
    }
    return node;
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::invalid_argument(std::string("JSON parse error at ") +
                                std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\n' || src_[pos_] == '\t' ||
            src_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= src_.size()) {
      fail("unexpected end of input");
    }
    return src_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail("unexpected character");
    }
    ++pos_;
  }

  Node value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than json::kMaxDepth");
        }
        ++depth_;
        Node node = c == '{' ? object() : array();
        --depth_;
        return node;
      }
      case '"':
        return string_node();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null();
      default:
        return number();
    }
  }

  Node object() {
    Node node;
    node.type = Node::Type::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return node;
    }
    while (true) {
      Node key = string_node();
      expect(':');
      node.object.emplace(key.text, value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return node;
      }
      if (c != ',') {
        fail("expected ',' or '}' in object");
      }
    }
  }

  Node array() {
    Node node;
    node.type = Node::Type::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return node;
    }
    while (true) {
      node.array.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return node;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array");
      }
    }
  }

  Node string_node() {
    Node node;
    node.type = Node::Type::String;
    expect('"');
    while (true) {
      if (pos_ >= src_.size()) {
        fail("unterminated string");
      }
      const char c = src_[pos_++];
      if (c == '"') {
        return node;
      }
      if (c != '\\') {
        node.text += c;
        continue;
      }
      if (pos_ >= src_.size()) {
        fail("unterminated escape");
      }
      const char esc = src_[pos_++];
      switch (esc) {
        case '"':
          node.text += '"';
          break;
        case '\\':
          node.text += '\\';
          break;
        case '/':
          node.text += '/';
          break;
        case 'n':
          node.text += '\n';
          break;
        case 't':
          node.text += '\t';
          break;
        case 'r':
          node.text += '\r';
          break;
        case 'u': {
          if (pos_ + 4 > src_.size()) {
            fail("truncated \\u escape");
          }
          unsigned long code = 0;
          for (int d = 0; d < 4; ++d) {
            const char h = src_[pos_ + static_cast<std::size_t>(d)];
            if (std::isxdigit(static_cast<unsigned char>(h)) == 0) {
              fail("non-hex digit in \\u escape");
            }
            code = code * 16 +
                   static_cast<unsigned long>(
                       h <= '9' ? h - '0'
                                : (h | 0x20) - 'a' + 10);
          }
          pos_ += 4;
          // The canonical serializers only emit \u00xx control codes;
          // higher code points would be silently corrupted by the
          // single-byte decode below, so reject them loudly.
          if (code > 0xff) {
            fail("\\u escape beyond \\u00ff unsupported");
          }
          node.text += static_cast<char>(code);
          break;
        }
        default:
          fail("unsupported escape");
      }
    }
  }

  Node boolean() {
    Node node;
    node.type = Node::Type::Bool;
    if (src_.compare(pos_, 4, "true") == 0) {
      node.boolean = true;
      pos_ += 4;
    } else if (src_.compare(pos_, 5, "false") == 0) {
      node.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return node;
  }

  Node null() {
    if (src_.compare(pos_, 4, "null") != 0) {
      fail("bad literal");
    }
    pos_ += 4;
    return Node{};
  }

  Node number() {
    Node node;
    node.type = Node::Type::Number;
    const std::size_t start = pos_;
    if (pos_ < src_.size() && src_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0 ||
            src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
            src_[pos_] == '+' || src_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a number");
    }
    node.text = src_.substr(start, pos_ - start);
    return node;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open around the current position
};

[[noreturn]] void fail_type(const char* expected) {
  throw std::invalid_argument(std::string("JSON: expected ") + expected);
}

}  // namespace

const Node* Node::find(const char* key) const {
  if (type != Type::Object) {
    return nullptr;
  }
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Node parse(const std::string& src) { return Parser(src).parse(); }

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

const Node& member(const Node& obj, const char* key) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    throw std::invalid_argument(std::string("JSON: missing field '") + key +
                                "'");
  }
  return it->second;
}

namespace {

/// The whole number token as a decimal integer of type T. A fraction, an
/// exponent, a sign T cannot hold, or a value outside T's range is
/// malformed input, never a truncated or wrapped value.
template <typename T>
T to_integer(const Node& n, const char* expected) {
  if (n.type != Node::Type::Number) {
    fail_type("a number");
  }
  const char* first = n.text.data();
  const char* last = first + n.text.size();
  T v{};
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || end != last) {
    fail_type(expected);
  }
  return v;
}

}  // namespace

int to_int(const Node& n) { return to_integer<int>(n, "an int"); }

std::uint64_t to_u64(const Node& n) {
  return to_integer<std::uint64_t>(n, "an unsigned 64-bit integer");
}

double to_double(const Node& n) {
  if (n.type != Node::Type::Number) {
    fail_type("a number");
  }
  return std::strtod(n.text.c_str(), nullptr);
}

bool to_bool(const Node& n) {
  if (n.type != Node::Type::Bool) {
    fail_type("a boolean");
  }
  return n.boolean;
}

const std::string& to_string_field(const Node& n) {
  if (n.type != Node::Type::String) {
    fail_type("a string");
  }
  return n.text;
}

}  // namespace cfc::json
