// Shared pieces of the handshake benchmark: the workload table, the
// seeded per-handshake inputs, the in-memory span log and exact order
// statistics. Everything here is benchmark code; the program under test
// only ever sees the generated inputs.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/types.h"
#include "hash/prg.h"

namespace hsbench {

using namespace lacrv;

/// Steady-clock nanoseconds (the one time base of every span).
u64 now_ns();

/// Nanoseconds to microseconds, keeping the sub-microsecond digits.
inline double to_us(u64 ns) { return static_cast<double>(ns) / 1e3; }

u64 splitmix64(u64& state);

/// Seeded uniform stream: splitmix64 started from a hash of (seed,
/// per-purpose stream id), so neither two streams of one seed nor the
/// streams of neighbouring seeds share draws.
class Rng {
 public:
  Rng(u64 seed, u64 stream) : state_(seed) {
    state_ = splitmix64(state_) + stream;
    state_ = splitmix64(state_);
  }
  u64 next() { return splitmix64(state_); }
  /// Uniform in (0, 1].
  double uniform() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  u64 state_;
};

struct WorkloadSpec {
  const char* name;
  /// Wire key id of the served scheme (0: LAC-128, 1: LWR-512).
  u32 key_id;
  bool open_loop;
  /// Poisson arrival rate in handshakes per second (open loop only).
  double rate;
  /// One handshake in this many tampers its ciphertext (0: none).
  std::size_t tamper_period;
};

inline constexpr std::size_t kConnections = 4;
/// Traced runs keep the spans of at most this many handshakes per level,
/// which bounds memory and the span files on the fastest workload.
inline constexpr u64 kMaxTracedHandshakes = 20'000;
/// lac-open's arrival rate: about half of lac-handshake's closed-loop
/// rate on a 4-vCPU host at the commit that introduced the benchmark
/// (BENCHMARK.json records the same number).
inline constexpr double kLacOpenRate = 330.0;

const WorkloadSpec* find_workload(const std::string& name);

/// The seeded inputs of one handshake.
struct HandshakeInput {
  u64 index = 0;
  hash::Seed entropy{};
  bool tampered = false;
  /// Byte offset (within the ciphertext) and XOR mask of the flipped
  /// nibble; the mask is a nonzero nibble in the low or high half.
  std::size_t tamper_byte = 0;
  u8 tamper_mask = 0;
  /// Due time in seconds after the schedule start (open loop only).
  double due_s = 0;
};

/// Generates the workload's handshakes in order, from the seed alone.
/// Tampering flips one nibble in the ciphertext's v part (bytes
/// [first_byte, ct_bytes)), whose every nibble value is a well-formed
/// ciphertext image, so a tampered frame still parses on the server.
class Schedule {
 public:
  Schedule(const WorkloadSpec& spec, u64 seed, std::size_t first_byte,
           std::size_t ct_bytes);
  HandshakeInput next();

 private:
  const WorkloadSpec& spec_;
  Rng entropy_rng_;
  Rng arrival_rng_;
  Rng tamper_rng_;
  std::size_t first_byte_;
  std::size_t ct_bytes_;
  u64 index_ = 0;
  double due_s_ = 0;
  std::size_t tamper_slot_ = 0;
};

void apply_tamper(const HandshakeInput& in, Bytes& ct);

/// Nearest-rank order statistic of raw samples (p in [0, 100]); NaN when
/// there are no samples.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// One timed call. `parent` indexes the enclosing span (kNoParent at the
/// top level); `request` groups the spans of one handshake or operation.
struct Span {
  const char* name;
  u64 start_ns;
  u64 end_ns;
  u32 parent;
  u64 request;

  double duration_us() const { return to_us(end_ns - start_ns); }
};

inline constexpr u32 kNoParent = ~u32{0};

/// Single-threaded in-memory span log: spans stay in memory while the
/// benchmark runs and are written out once at exit. Scoped spans nest
/// through an explicit stack; asynchronous ones (wire requests) are added
/// whole with an explicit parent.
class SpanLog {
 public:
  u32 open(const char* name, u64 request);
  void close(u32 index);
  u32 add(const char* name, u64 start_ns, u64 end_ns, u32 parent,
          u64 request);
  /// Parent of the next scoped span (the innermost open one).
  u32 current() const { return stack_.empty() ? kNoParent : stack_.back(); }
  std::size_t size() const { return spans_.size(); }
  const Span& operator[](std::size_t i) const { return spans_[i]; }

  /// One JSON object per line: name, start, end, parent, request.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<u32> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, u64 request = 0)
      : log_(log), index_(log.open(name, request)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  u32 index_;
};

/// `s` as a JSON string literal.
std::string json_quote(const std::string& s);

/// Minimal JSON object writer for the benchmark's machine-readable
/// output (numbers printed with every significant digit).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Split argv into --key value pairs; returns false on a malformed list.
bool parse_flags(int argc, char** argv, int first,
                 std::vector<std::pair<std::string, std::string>>* out);

}  // namespace hsbench
