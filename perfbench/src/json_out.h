// Minimal JSON emission for the run record. Doubles are written with
// 17 significant digits, so a value read back compares bit for bit —
// the traced/untraced verdict check relies on that.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

class JsonOut {
 public:
  JsonOut& begin_object() { return open('{'); }
  JsonOut& end_object() { return close('}'); }
  JsonOut& begin_array() { return open('['); }
  JsonOut& end_array() { return close(']'); }

  JsonOut& key(const std::string& k) {
    separate();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonOut& value(const std::string& s) {
    separate();
    quote(s);
    return *this;
  }
  JsonOut& value(const char* s) { return value(std::string(s)); }
  JsonOut& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  JsonOut& value(double d) {
    separate();
    if (!std::isfinite(d)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out_ += buf;
    return *this;
  }
  JsonOut& value(std::uint64_t u) {
    separate();
    out_ += std::to_string(u);
    return *this;
  }
  JsonOut& value(int i) {
    separate();
    out_ += std::to_string(i);
    return *this;
  }

  template <typename T>
  JsonOut& field(const std::string& k, T v) {
    return key(k).value(v);
  }

  const std::string& str() const noexcept { return out_; }

 private:
  JsonOut& open(char c) {
    separate();
    out_ += c;
    first_ = true;
    return *this;
  }
  JsonOut& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench
