#include <time.h>

#include <chrono>
#include <cstdio>

#include "harness.hpp"

namespace nfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

// ---- Tracer -------------------------------------------------------------------

int Tracer::begin_run(const std::string& name) {
  if (!enabled_) return -1;
  ++run_;
  stack_.clear();
  return open(name);
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  counts_.push_back({run_, {name, value}});
}

std::string Tracer::to_json() const {
  std::string out = "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += JsonObject()
               .str("name", s.name)
               .integer("id", static_cast<std::uint64_t>(s.id))
               .num("parent", s.parent)
               .integer("run", static_cast<std::uint64_t>(s.run))
               .integer("start_ns", static_cast<std::uint64_t>(s.start_ns))
               .integer("end_ns", static_cast<std::uint64_t>(s.end_ns))
               .done();
    out += "\n";
  }
  out += "], \"counts\": [";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonObject()
               .integer("run", static_cast<std::uint64_t>(counts_[i].first))
               .str("name", counts_[i].second.first)
               .num("value", counts_[i].second.second)
               .done();
  }
  out += "]}";
  return out;
}

// ---- JSON ---------------------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}
}  // namespace

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_quote(k) + ": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_quote(v);
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace nfbench
