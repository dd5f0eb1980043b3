#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace saufno {

/// Escape a string for embedding in a JSON string literal (quotes not
/// included).
std::string json_escape(const std::string& s);

/// Minimal streaming JSON writer shared by the bench BENCH_*.json emitters
/// and the obs exporters. Handles escaping, comma placement and 2-space
/// indentation; the caller supplies structure:
///
///   JsonWriter w;
///   w.begin_object();
///   w.field("bench", "bench_rollout");
///   w.key("results"); w.begin_array();
///     w.begin_object(); w.field("steps_per_sec", 424.0); w.end_object();
///   w.end_array();
///   w.end_object();
///   w.write_file("BENCH_rollout.json");
///
/// It is intentionally write-only and non-validating beyond bracket
/// pairing — malformed call sequences produce malformed JSON, and the CI
/// smoke steps that `json.load` every emitted file are the net that catches
/// that.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Object key; must be followed by exactly one value/container.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v) { value(std::string(v)); }
  void value(double v, int precision = 6);
  void value(int64_t v);
  void value(int v) { value(static_cast<int64_t>(v)); }
  void value(bool v);
  /// Splice a pre-rendered JSON fragment (e.g. an obs::dump_json snapshot)
  /// as this value, verbatim.
  void raw_value(const std::string& json);

  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }
  void field(const std::string& k, double v, int precision) {
    key(k);
    value(v, precision);
  }

  const std::string& str() const { return out_; }
  /// Write the document to `path`; returns false (and prints) on failure.
  bool write_file(const std::string& path) const;

 private:
  void open(char c);
  void close(char c);
  /// Comma/newline/indent bookkeeping before a value or key.
  void pre_value();
  void indent();

  std::string out_;
  int depth_ = 0;
  bool need_comma_ = false;
  bool after_key_ = false;
};

}  // namespace saufno
