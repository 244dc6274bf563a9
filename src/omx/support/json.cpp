#include "omx/support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "omx/support/diagnostics.hpp"

namespace omx::support::json {

namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : s_(text), max_depth_(max_depth) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw omx::Error("json: " + what + " at offset " +
                     std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
    }
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (s_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Value parse_value(int depth) {
    if (depth > max_depth_) {
      fail("nesting too deep");
    }
    skip_ws();
    Value v;
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        v.type = Value::Type::kString;
        v.string = parse_string();
        return v;
      case 't':
        if (!consume_word("true")) {
          fail("invalid literal");
        }
        v.type = Value::Type::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_word("false")) {
          fail("invalid literal");
        }
        v.type = Value::Type::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_word("null")) {
          fail("invalid literal");
        }
        return v;
      default: return parse_number();
    }
  }

  Value parse_object(int depth) {
    Value v;
    v.type = Value::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array(int depth) {
    Value v;
    v.type = Value::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) {
        fail("unterminated string");
      }
      const char c = s_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) {
        fail("unterminated escape");
      }
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by the protocol; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  /// Consumes a run of decimal digits; returns how many.
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ - start;
  }

  bool accept(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  Value parse_number() {
    const std::size_t start = pos_;
    const bool minus = accept('-');
    const std::size_t int_digits = digits();
    if (int_digits == 0) {
      fail(minus ? "invalid number" : "invalid value");
    }
    // No leading zeros ("01" is two tokens, i.e. malformed).
    if (int_digits > 1 && s_[start + (minus ? 1 : 0)] == '0') {
      fail("leading zero in number");
    }
    if (accept('.') && digits() == 0) {
      fail("invalid number");
    }
    if (accept('e') || accept('E')) {
      if (!accept('+')) {
        accept('-');
      }
      if (digits() == 0) {
        fail("invalid number");
      }
    }
    const std::string text(s_.substr(start, pos_ - start));
    const double d = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(d)) {
      fail("number out of range");
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.number = d;
    return v;
  }

  std::string_view s_;
  int max_depth_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) {
    return fallback;
  }
  if (v->type != Type::kNumber) {
    throw omx::Error("json: member '" + key + "' is not a number");
  }
  return v->number;
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) {
    return fallback;
  }
  if (v->type != Type::kString) {
    throw omx::Error("json: member '" + key + "' is not a string");
  }
  return v->string;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) {
    return fallback;
  }
  if (v->type != Type::kBool) {
    throw omx::Error("json: member '" + key + "' is not a boolean");
  }
  return v->boolean;
}

Value parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace omx::support::json
