#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace hsbench {

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const WorkloadSpec* find_workload(const std::string& name) {
  // Why each workload exists is recorded next to its name in
  // BENCHMARK.json; the table only fixes its shape.
  static const WorkloadSpec kWorkloads[] = {
      {"lac-handshake", 0, false, 0.0, 0},
      {"lwr-handshake", 1, false, 0.0, 0},
      {"lac-open", 0, true, kLacOpenRate, 32},
  };
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

Schedule::Schedule(const WorkloadSpec& spec, u64 seed, std::size_t first_byte,
                   std::size_t ct_bytes)
    : spec_(spec),
      entropy_rng_(seed, 1),
      arrival_rng_(seed, 2),
      tamper_rng_(seed, 3),
      first_byte_(first_byte),
      ct_bytes_(ct_bytes) {}

HandshakeInput Schedule::next() {
  HandshakeInput in;
  in.index = index_;
  for (std::size_t b = 0; b < in.entropy.size(); b += 8) {
    const u64 draw = entropy_rng_.next();
    for (std::size_t k = 0; k < 8; ++k)
      in.entropy[b + k] = static_cast<u8>(draw >> (8 * k));
  }
  if (spec_.open_loop) {
    due_s_ += -std::log(arrival_rng_.uniform()) / spec_.rate;
    in.due_s = due_s_;
  }
  if (spec_.tamper_period > 0) {
    // Exactly one tampered handshake per block of tamper_period, at a
    // seeded position within the block.
    const std::size_t pos = index_ % spec_.tamper_period;
    if (pos == 0) tamper_slot_ = tamper_rng_.next() % spec_.tamper_period;
    if (pos == tamper_slot_) {
      in.tampered = true;
      in.tamper_byte =
          first_byte_ + tamper_rng_.next() % (ct_bytes_ - first_byte_);
      const u8 nibble = static_cast<u8>(1 + tamper_rng_.next() % 15);
      in.tamper_mask =
          (tamper_rng_.next() & 1) ? static_cast<u8>(nibble << 4) : nibble;
    }
  }
  ++index_;
  return in;
}

void apply_tamper(const HandshakeInput& in, Bytes& ct) {
  if (in.tampered && in.tamper_byte < ct.size())
    ct[in.tamper_byte] = static_cast<u8>(ct[in.tamper_byte] ^ in.tamper_mask);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[i];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

u32 SpanLog::open(const char* name, u64 request) {
  const u32 index = add(name, now_ns(), 0, current(), request);
  stack_.push_back(index);
  return index;
}

void SpanLog::close(u32 index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

u32 SpanLog::add(const char* name, u64 start_ns, u64 end_ns, u32 parent,
                 u64 request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<u32>(spans_.size() - 1);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << ",\"request\":" << s.request << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  out += obs::json::escape(s);
  out += '"';
  return out;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_quote(value);
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

bool parse_flags(int argc, char** argv, int first,
                 std::vector<std::pair<std::string, std::string>>* out) {
  for (int i = first; i < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    out->emplace_back(k.substr(2), argv[i + 1]);
  }
  return true;
}

}  // namespace hsbench
