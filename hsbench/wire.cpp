// Level 1 of the handshake benchmark: a single-threaded client that
// drives one workload over kConnections TCP connections to a running
// kem_server, checks every reply and times whole handshakes.
//
// A handshake is a wire encaps, then a wire decaps of the returned
// ciphertext (one nibble flipped for a tampered handshake), then a
// comparison of the two keys: equal for an honest handshake, different
// for a tampered one (implicit rejection). The clock starts at the
// encaps send in the closed loop and at the handshake's due time in the
// open loop, so a stalled client or server is charged to latency instead
// of silently delaying later arrivals.
//
// The window is cut into one-second slices, and the host's steal time
// (how long the hypervisor kept runnable vCPUs off the CPU) is sampled
// at every slice boundary. On a shared host steal comes in bursts of
// seconds to minutes, from 0 to over 20% of CPU time, and per-second
// latency follows it closely. So the reported rate and latencies are
// taken over the quiet slices: the third with the least steal, and every
// other slice whose steal is within one percentage point of theirs. The
// whole window's figures are reported next to them.
#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "lac/params.h"
#include "net/protocol.h"
#include "scheme/lwr.h"

namespace hsbench {
namespace {

using Key = std::array<u8, 32>;

enum class Outcome {
  kOk,
  kMismatch,       // honest handshake, keys differ
  kTamperSameKey,  // tampered handshake got the honest key back
  kShed,           // overloaded / unavailable / deadline verdict
  kProtocol,       // protocol error or malformed reply
  kDisconnect,     // connection lost with the handshake in flight
  kTimeout,        // no reply before the drain deadline
  kOther,          // any other typed error
};
constexpr std::size_t kNumOutcomes = 8;
const char* outcome_name(Outcome o) {
  static const char* kNames[kNumOutcomes] = {
      "ok", "key_mismatch", "tamper_same_key", "shed",
      "protocol", "disconnect", "timeout", "other"};
  return kNames[static_cast<std::size_t>(o)];
}

struct Handshake {
  HandshakeInput in;
  std::size_t conn = 0;
  u64 start_ns = 0;  // latency clock start (send or due time)
  u64 encaps_sent_ns = 0;
  u64 encaps_done_ns = 0;
  u64 decaps_sent_ns = 0;
  Key key{};
};

struct Conn {
  int fd = -1;
  net::ResponseParser parser;
  Bytes out;
  std::size_t out_head = 0;
  bool dead = false;
  /// Request id -> handshake index (or ping marker) awaiting a reply.
  std::unordered_map<u64, u64> pending;
};

constexpr u64 kPingMarker = ~u64{0};

/// utime + stime of a process, in seconds (all its threads).
double process_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return std::nan("");
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return std::nan("");
  std::istringstream fields(line.substr(close + 2));
  std::string tok;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field == 14) utime = std::stod(tok);
    if (field == 15) stime = std::stod(tok);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double vm_hwm_kb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  return std::nan("");
}

/// Steal and total time of all CPUs so far, in clock ticks (/proc/stat).
struct HostTicks {
  double steal = 0;
  double total = 0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  // user nice system idle iowait irq softirq steal; guest time is
  // already counted in user.
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    if (!(in >> v)) return {};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class WireClient {
 public:
  explicit WireClient(const DriveOptions& opt)
      : opt_(opt),
        params_(opt.spec->key_id == 0 ? &lac::Params::lac128()
                                      : &scheme::lwr::lwr512()),
        schedule_(*opt.spec, opt.seed, params_->n, params_->ct_bytes()) {}

  int run() {
    // Fine-grained timer slack keeps open-loop sends close to their due
    // times without busy-waiting.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    for (std::size_t i = 0; i < kConnections; ++i) {
      auto c = std::make_unique<Conn>();
      c->fd = connect_to(opt_.port);
      if (c->fd < 0) {
        std::cerr << "hsbench: cannot connect to port " << opt_.port << "\n";
        return 2;
      }
      conns_.push_back(std::move(c));
    }
    if (opt_.ping_interval_us > 0) {
      ping_ = std::make_unique<Conn>();
      ping_->fd = connect_to(opt_.port);
      if (ping_->fd < 0) return 2;
    }

    t0_ = now_ns();
    win_start_ = t0_ + static_cast<u64>(opt_.warmup_s * 1e9);
    win_end_ = win_start_ + static_cast<u64>(opt_.window_s * 1e9);
    slices_.resize(std::max<long>(1, std::lround(opt_.window_s / kSliceS)));
    drain_deadline_ = win_end_ + 10'000'000'000;
    if (opt_.spec->open_loop) {
      next_ = schedule_.next();
    } else {
      for (std::size_t i = 0; i < conns_.size(); ++i) start_closed(i);
    }
    loop();
    for (auto& c : conns_)
      if (c->fd >= 0) ::close(c->fd);
    if (ping_ && ping_->fd >= 0) ::close(ping_->fd);
    report();
    if (!opt_.spans_path.empty() && !spans_.write_jsonl(opt_.spans_path)) {
      std::cerr << "hsbench: cannot write spans to " << opt_.spans_path
                << "\n";
      return 2;
    }
    return 0;
  }

 private:
  bool in_window(u64 t) const { return t >= win_start_ && t < win_end_; }
  /// Which slice of the window `t` (inside it) falls in.
  std::size_t slice_of(u64 t) const {
    return std::min(slices_.size() - 1,
                    static_cast<std::size_t>((t - win_start_) * slices_.size() /
                                             (win_end_ - win_start_)));
  }
  /// Start of slice k (k == slices_.size(): the window's end).
  u64 boundary_ns(std::size_t k) const {
    return win_start_ + (win_end_ - win_start_) * k / slices_.size();
  }

  u64 next_request_id() { return ++request_id_; }

  void send_frame(Conn& c, net::WireOp op, u64 id, Bytes payload) {
    net::RequestFrame f;
    f.op = op;
    f.request_id = id;
    f.key_id = opt_.spec->key_id;
    f.payload = std::move(payload);
    const Bytes wire = net::encode_request(f);
    c.out.insert(c.out.end(), wire.begin(), wire.end());
    flush(c);
  }

  void flush(Conn& c) {
    while (!c.dead && c.out_head < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_head,
                               c.out.size() - c.out_head, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_head += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        lose(c);
        return;
      }
    }
    if (c.out_head == c.out.size()) {
      c.out.clear();
      c.out_head = 0;
    }
  }

  void send_encaps(std::size_t conn, Handshake hs) {
    Conn& c = *conns_[conn];
    hs.conn = conn;
    hs.encaps_sent_ns = now_ns();
    const u64 id = next_request_id();
    const u64 index = hs.in.index;
    c.pending.emplace(id, index);
    inflight_.emplace(index, std::move(hs));
    send_frame(c, net::WireOp::kEncaps, id,
               Bytes(inflight_[index].in.entropy.begin(),
                     inflight_[index].in.entropy.end()));
  }

  void start_closed(std::size_t conn) {
    Handshake hs;
    hs.in = schedule_.next();
    hs.start_ns = now_ns();
    send_encaps(conn, std::move(hs));
  }

  void send_due(u64 now) {
    while (now < win_end_) {
      const u64 due = t0_ + static_cast<u64>(next_.due_s * 1e9);
      if (due > now) return;
      Handshake hs;
      hs.in = next_;
      hs.start_ns = due;
      const u64 sent = now_ns();
      if (in_window(due))
        slices_[slice_of(due)].late_us.push_back(to_us(sent - due));
      send_encaps(static_cast<std::size_t>(hs.in.index % conns_.size()),
                  std::move(hs));
      next_ = schedule_.next();
    }
  }

  void finish(u64 index, Outcome outcome, u64 done_ns) {
    auto it = inflight_.find(index);
    if (it == inflight_.end()) return;
    Handshake& hs = it->second;
    const bool counted = in_window(hs.start_ns);
    if (counted) {
      ++attempted_;
      ++outcomes_[static_cast<std::size_t>(outcome)];
      if (hs.in.tampered) ++tampered_;
      if (outcome == Outcome::kOk && !hs.in.tampered) {
        latency_us_.push_back(to_us(done_ns - hs.start_ns));
        slices_[slice_of(hs.start_ns)].latency_us.push_back(latency_us_.back());
      }
      if (!opt_.spans_path.empty() && hs.decaps_sent_ns != 0 &&
          traced_++ < kMaxTracedHandshakes) {
        const u32 parent = spans_.add(
            hs.in.tampered ? "wire.handshake_tampered" : "wire.handshake",
            hs.start_ns, done_ns, kNoParent, index);
        spans_.add("wire.encaps", hs.encaps_sent_ns, hs.encaps_done_ns,
                   parent, index);
        spans_.add("wire.decaps", hs.decaps_sent_ns, done_ns, parent, index);
      }
    }
    if (outcome == Outcome::kOk && !hs.in.tampered && in_window(done_ns)) {
      ++honest_done_in_window_;
      ++slices_[slice_of(done_ns)].done;
    }
    const std::size_t conn = hs.conn;
    inflight_.erase(it);
    if (!opt_.spec->open_loop && now_ns() < win_end_ && !conns_[conn]->dead)
      start_closed(conn);
  }

  void on_reply(Conn& c, net::ResponseFrame&& r) {
    auto pit = c.pending.find(r.request_id);
    if (pit == c.pending.end()) return;
    const u64 index = pit->second;
    c.pending.erase(pit);
    const u64 t = now_ns();
    if (index == kPingMarker) {
      if (r.status == net::WireStatus::kOk && in_window(ping_sent_ns_))
        ping_rtt_us_.push_back(to_us(t - ping_sent_ns_));
      ping_inflight_ = false;
      next_ping_ns_ = t + opt_.ping_interval_us * 1000;
      return;
    }
    auto hit = inflight_.find(index);
    if (hit == inflight_.end()) return;
    Handshake& hs = hit->second;

    if (r.status == net::WireStatus::kOverloaded ||
        r.status == net::WireStatus::kUnavailable ||
        r.status == net::WireStatus::kDeadlineExceeded)
      return finish(index, Outcome::kShed, t);
    if (net::is_protocol_error(r.status))
      return finish(index, Outcome::kProtocol, t);
    if (r.status != net::WireStatus::kOk)
      return finish(index, Outcome::kOther, t);

    if (hs.decaps_sent_ns == 0) {
      // Encaps reply: ciphertext || 32-byte shared key.
      if (r.payload.size() != params_->ct_bytes() + hs.key.size())
        return finish(index, Outcome::kProtocol, t);
      hs.encaps_done_ns = t;
      std::copy(r.payload.end() - 32, r.payload.end(), hs.key.begin());
      Bytes ct(r.payload.begin(), r.payload.end() - 32);
      apply_tamper(hs.in, ct);
      hs.decaps_sent_ns = now_ns();
      const u64 id = next_request_id();
      c.pending.emplace(id, index);
      send_frame(c, net::WireOp::kDecaps, id, std::move(ct));
      return;
    }
    if (r.payload.size() != hs.key.size())
      return finish(index, Outcome::kProtocol, t);
    const bool same = std::equal(hs.key.begin(), hs.key.end(),
                                 r.payload.begin());
    if (hs.in.tampered)
      return finish(index, same ? Outcome::kTamperSameKey : Outcome::kOk, t);
    finish(index, same ? Outcome::kOk : Outcome::kMismatch, t);
  }

  void lose(Conn& c) {
    if (c.dead) return;
    c.dead = true;
    std::vector<u64> lost;
    for (const auto& [id, index] : c.pending)
      if (index != kPingMarker) lost.push_back(index);
    c.pending.clear();
    const u64 t = now_ns();
    for (const u64 index : lost) finish(index, Outcome::kDisconnect, t);
  }

  void read_all(Conn& c) {
    u8 buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.parser.feed(ByteView(buf, static_cast<std::size_t>(n)));
        net::ResponseFrame r;
        for (;;) {
          const net::ParseResult pr = c.parser.next(&r);
          if (pr == net::ParseResult::kNeedMore) break;
          if (pr == net::ParseResult::kError) {
            ++reply_protocol_errors_;
            lose(c);
            return;
          }
          on_reply(c, std::move(r));
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      lose(c);
      return;
    }
  }

  void snapshot_start() {
    server_cpu_start_ = process_cpu_s(opt_.server_pid);
    self_cpu_start_ = self_cpu_s();
    started_ = true;
  }

  void snapshot_end() {
    server_cpu_end_ = process_cpu_s(opt_.server_pid);
    server_hwm_kb_ = vm_hwm_kb(opt_.server_pid);
    self_cpu_end_ = self_cpu_s();
    ended_ = true;
  }

  void loop() {
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (;;) {
      u64 t = now_ns();
      if (!started_ && t >= win_start_) snapshot_start();
      if (!ended_ && t >= win_end_) snapshot_end();
      while (boundaries_.size() <= slices_.size() &&
             t >= boundary_ns(boundaries_.size()))
        boundaries_.push_back(host_ticks());
      if (opt_.spec->open_loop) send_due(t);
      if (ping_ && !ping_->dead && !ping_inflight_ && t < win_end_ &&
          t >= next_ping_ns_) {
        const u64 id = next_request_id();
        ping_->pending.emplace(id, kPingMarker);
        ping_sent_ns_ = now_ns();
        ping_inflight_ = true;
        send_frame(*ping_, net::WireOp::kPing, id, {});
      }
      if (ended_ && inflight_.empty()) return;
      if (t >= drain_deadline_) {
        std::vector<u64> left;
        for (const auto& [index, hs] : inflight_) left.push_back(index);
        for (const u64 index : left) finish(index, Outcome::kTimeout, t);
        return;
      }

      // Sleep until the next event the loop must act on by itself.
      u64 wake = t + 10'000'000;
      if (!started_) wake = std::min(wake, win_start_);
      if (!ended_) wake = std::min(wake, win_end_);
      if (boundaries_.size() <= slices_.size())
        wake = std::min(wake, boundary_ns(boundaries_.size()));
      if (opt_.spec->open_loop && t < win_end_)
        wake = std::min(wake, t0_ + static_cast<u64>(next_.due_s * 1e9));
      if (ping_ && !ping_inflight_ && t < win_end_)
        wake = std::min(wake, next_ping_ns_);
      fds.clear();
      owners.clear();
      for (auto& c : conns_) {
        if (c->dead) continue;
        fds.push_back({c->fd, static_cast<short>(
                                  POLLIN | (c->out.empty() ? 0 : POLLOUT)),
                       0});
        owners.push_back(c.get());
      }
      if (ping_ && !ping_->dead) {
        fds.push_back({ping_->fd, POLLIN, 0});
        owners.push_back(ping_.get());
      }
      if (fds.empty() && !opt_.spec->open_loop) {
        // Every connection is gone: nothing can complete any more.
        std::vector<u64> left;
        for (const auto& [index, hs] : inflight_) left.push_back(index);
        for (const u64 index : left) finish(index, Outcome::kDisconnect, t);
        return;
      }
      t = now_ns();
      const u64 wait = wake > t ? wake - t : 0;
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n < 0 && errno != EINTR) return;
      for (std::size_t i = 0; n > 0 && i < fds.size(); ++i) {
        Conn& c = *owners[i];
        if (c.dead) continue;
        if (fds[i].revents & POLLOUT) flush(c);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_all(c);
      }
    }
  }

  /// Share of CPU time the host stole during slice k; 1 when either
  /// boundary was not sampled, so such a slice is never among the quiet.
  double steal_share(std::size_t k) const {
    if (k + 1 >= boundaries_.size()) return 1.0;
    const double total = boundaries_[k + 1].total - boundaries_[k].total;
    return total > 0 ? (boundaries_[k + 1].steal - boundaries_[k].steal) / total
                     : 1.0;
  }

  void report() const {
    const std::size_t n = slices_.size();
    std::vector<double> steal(n);
    for (std::size_t k = 0; k < n; ++k) steal[k] = steal_share(k);
    std::vector<double> sorted = steal;
    std::sort(sorted.begin(), sorted.end());
    const double quiet_limit = sorted[(n + 2) / 3 - 1] + kStealTolerance;
    const double slice_s = opt_.window_s / static_cast<double>(n);
    std::vector<double> quiet_latency, quiet_late;
    std::size_t quiet_n = 0;
    u64 quiet_done = 0;
    double quiet_steal = 0;
    std::string quiet_rates = "[";
    for (std::size_t k = 0; k < n; ++k) {
      if (steal[k] > quiet_limit) continue;
      const Slice& s = slices_[k];
      quiet_latency.insert(quiet_latency.end(), s.latency_us.begin(),
                           s.latency_us.end());
      quiet_late.insert(quiet_late.end(), s.late_us.begin(), s.late_us.end());
      quiet_done += s.done;
      quiet_steal += steal[k];
      if (quiet_n) quiet_rates += ",";
      quiet_rates += std::to_string(static_cast<double>(s.done) / slice_s);
      ++quiet_n;
    }
    quiet_rates += "]";
    quiet_steal /= static_cast<double>(quiet_n);
    const double window_steal =
        boundaries_.size() == n + 1 &&
                boundaries_[n].total > boundaries_[0].total
            ? (boundaries_[n].steal - boundaries_[0].steal) /
                  (boundaries_[n].total - boundaries_[0].total)
            : std::nan("");

    std::string outcome_json = "{";
    for (std::size_t i = 0; i < kNumOutcomes; ++i)
      outcome_json += std::string(i ? "," : "") + "\"" +
                      outcome_name(static_cast<Outcome>(i)) +
                      "\":" + std::to_string(outcomes_[i]);
    outcome_json += "}";
    const double window_s = opt_.window_s;
    JsonObject o;
    o.str("workload", opt_.spec->name)
        .num("seed", static_cast<double>(opt_.seed))
        .num("window_s", window_s)
        .num("attempted", static_cast<double>(attempted_))
        .num("tampered", static_cast<double>(tampered_))
        .raw("outcomes", outcome_json)
        .num("reply_protocol_errors", static_cast<double>(reply_protocol_errors_))
        .num("slices", static_cast<double>(n))
        .num("quiet_slices", static_cast<double>(quiet_n))
        .num("steal_share", window_steal)
        .num("quiet_steal_share", quiet_steal)
        .num("handshakes_per_s", static_cast<double>(quiet_done) /
                                     (static_cast<double>(quiet_n) * slice_s))
        .raw("quiet_slice_rates", quiet_rates)
        .num("latency_samples", static_cast<double>(quiet_latency.size()))
        .num("handshake_p50_us", percentile(quiet_latency, 50))
        .num("handshake_p995_us", percentile(quiet_latency, 99.5))
        .num("all_handshakes_per_s",
             static_cast<double>(honest_done_in_window_) / window_s)
        .num("all_latency_samples", static_cast<double>(latency_us_.size()))
        .num("all_handshake_p50_us", percentile(latency_us_, 50))
        .num("all_handshake_p995_us", percentile(latency_us_, 99.5))
        .num("server_cpu_s", server_cpu_end_ - server_cpu_start_)
        .num("server_vmhwm_kb", server_hwm_kb_)
        .num("gen_late_p50_us",
             opt_.spec->open_loop ? percentile(quiet_late, 50) : 0.0)
        .num("gen_late_p99_us",
             opt_.spec->open_loop ? percentile(quiet_late, 99) : 0.0)
        .num("gen_cpu_share", (self_cpu_end_ - self_cpu_start_) / window_s)
        .num("ping_samples", static_cast<double>(ping_rtt_us_.size()))
        .num("ping_rtt_p50_us", percentile(ping_rtt_us_, 50))
        .num("spans", static_cast<double>(spans_.size()));
    std::cout << o.dump() << "\n";
  }

  static constexpr double kSliceS = 1.0;
  /// Quiet slices steal at most this much more than the quietest third.
  /// The margin keeps nearly every slice when the host is calm, so the
  /// tail (which on lac-open comes in clusters behind tampered retries)
  /// keeps its samples.
  static constexpr double kStealTolerance = 0.01;

  /// One slice of the measured window.
  struct Slice {
    u64 done = 0;                    // honest handshakes completed in it
    std::vector<double> latency_us;  // honest handshakes started in it
    std::vector<double> late_us;     // open loop: lateness of sends due in it
  };

  const DriveOptions& opt_;
  const lac::Params* params_;
  Schedule schedule_;
  HandshakeInput next_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<Conn> ping_;
  std::unordered_map<u64, Handshake> inflight_;
  u64 t0_ = 0, win_start_ = 0, win_end_ = 0, drain_deadline_ = 0;
  u64 request_id_ = 0;
  u64 attempted_ = 0, tampered_ = 0;
  u64 honest_done_in_window_ = 0;
  u64 traced_ = 0;
  u64 reply_protocol_errors_ = 0;
  std::array<u64, kNumOutcomes> outcomes_{};
  std::vector<Slice> slices_;
  /// Host ticks at each slice boundary reached so far.
  std::vector<HostTicks> boundaries_;
  std::vector<double> latency_us_, ping_rtt_us_;
  bool ping_inflight_ = false;
  u64 ping_sent_ns_ = 0, next_ping_ns_ = 0;
  bool started_ = false, ended_ = false;
  double server_cpu_start_ = 0, server_cpu_end_ = 0, server_hwm_kb_ = 0;
  double self_cpu_start_ = 0, self_cpu_end_ = 0;
  SpanLog spans_;
};

}  // namespace

int run_drive(const DriveOptions& opt) {
  std::signal(SIGPIPE, SIG_IGN);
  return WireClient(opt).run();
}

}  // namespace hsbench
