#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace widen {
namespace {

// Deep enough for any file this repo emits; shallow enough that a hostile
// input cannot overflow the parser's stack.
constexpr int kMaxDepth = 64;

const std::string& EmptyString() {
  static const std::string* const empty = new std::string();
  return *empty;
}
const std::vector<Json>& EmptyArray() {
  static const std::vector<Json>* const empty = new std::vector<Json>();
  return *empty;
}
const std::map<std::string, Json>& EmptyObject() {
  static const std::map<std::string, Json>* const empty =
      new std::map<std::string, Json>();
  return *empty;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<Json> Parse() {
    Json root;
    if (!ParseValue(&root, 0)) return Fail();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          "JSON: trailing bytes after document at offset " +
          std::to_string(pos_));
    }
    return root;
  }

 private:
  Status Fail() const {
    return Status::InvalidArgument("JSON: parse error at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipWhitespace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = Json::String(std::move(s));
        return true;
      }
      case 't':
        *out = Json::Bool(true);
        return ConsumeLiteral("true");
      case 'f':
        *out = Json::Bool(false);
        return ConsumeLiteral("false");
      case 'n':
        *out = Json::Null();
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Json* out, int depth) {
    *out = Json::Object();
    if (!Consume('{')) return false;
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      Json value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->Set(key, std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(Json* out, int depth) {
    *out = Json::Array();
    if (!Consume('[')) return false;
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      Json element;
      if (!ParseValue(&element, depth + 1)) return false;
      out->Append(std::move(element));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point; surrogate pairs are passed
          // through as two 3-byte sequences (none of our emitters write them).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    char* end = nullptr;
    const double value = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) return false;
    *out = Json::Number(value);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void DumpTo(const Json& v, std::string* out) {
  switch (v.type()) {
    case Json::Type::kNull:
      out->append("null");
      return;
    case Json::Type::kBool:
      out->append(v.bool_value() ? "true" : "false");
      return;
    case Json::Type::kNumber: {
      const double d = v.number_value();
      if (!std::isfinite(d)) {  // JSON has no NaN/Inf
        out->append("null");
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      out->append(buf);
      return;
    }
    case Json::Type::kString:
      out->push_back('"');
      out->append(JsonEscape(v.string_value()));
      out->push_back('"');
      return;
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : v.array_items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(item, out);
      }
      out->push_back(']');
      return;
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.object_items()) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        out->append(JsonEscape(key));
        out->append("\":");
        DumpTo(value, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

StatusOr<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

Json Json::Bool(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::String(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const std::string& Json::string_value() const {
  return is_string() ? string_ : EmptyString();
}

const std::vector<Json>& Json::array_items() const {
  return is_array() ? array_ : EmptyArray();
}

const std::map<std::string, Json>& Json::object_items() const {
  return is_object() ? object_ : EmptyObject();
}

const Json* Json::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const Json* Json::FindPath(const std::vector<std::string>& keys) const {
  const Json* node = this;
  for (const std::string& key : keys) {
    node = node->Find(key);
    if (node == nullptr) return nullptr;
  }
  return node;
}

Json& Json::Set(const std::string& key, Json value) {
  if (!is_object()) *this = Object();
  object_[key] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  if (!is_array()) *this = Array();
  array_.push_back(std::move(value));
  return *this;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

}  // namespace widen
