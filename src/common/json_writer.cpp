#include "common/json_writer.h"

#include <cmath>

namespace saufno {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::indent() {
  for (int i = 0; i < depth_; ++i) out_ += "  ";
}

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;  // value follows its key on the same line
  }
  if (need_comma_) out_ += ',';
  if (depth_ > 0) out_ += '\n';
  indent();
}

void JsonWriter::open(char c) {
  pre_value();
  out_.push_back(c);
  ++depth_;
  need_comma_ = false;
}

void JsonWriter::close(char c) {
  --depth_;
  out_ += '\n';
  indent();
  out_.push_back(c);
  need_comma_ = true;
  if (depth_ == 0) out_ += '\n';
}

void JsonWriter::key(const std::string& k) {
  pre_value();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
  after_key_ = true;
  need_comma_ = true;
}

void JsonWriter::value(const std::string& v) {
  pre_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  need_comma_ = true;
}

void JsonWriter::value(double v, int precision) {
  pre_value();
  if (!std::isfinite(v)) {
    // JSON has no NaN/Inf literal; null keeps the document parseable.
    out_ += "null";
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    out_ += buf;
  }
  need_comma_ = true;
}

void JsonWriter::value(int64_t v) {
  pre_value();
  out_ += std::to_string(v);
  need_comma_ = true;
}

void JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  need_comma_ = true;
}

void JsonWriter::raw_value(const std::string& json) {
  pre_value();
  out_ += json;
  need_comma_ = true;
}

bool JsonWriter::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(out_.data(), 1, out_.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace saufno
