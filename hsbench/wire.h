// Level 1: the wire client (see wire.cpp).
#pragma once

#include <string>

#include "common.h"

namespace hsbench {

struct DriveOptions {
  int port = 0;
  const WorkloadSpec* spec = nullptr;
  u64 seed = 0;
  double warmup_s = 1.0;
  double window_s = 10.0;
  /// kem_server's pid, for its CPU time and peak RSS over the window.
  int server_pid = 0;
  /// > 0: a fifth connection pings the server this often (microseconds
  /// between a reply and the next ping).
  u64 ping_interval_us = 0;
  /// Non-empty: record one span per wire call and write them here.
  std::string spans_path;
};

/// Drive the workload and print one JSON object with the raw results.
/// Returns 0 when the run completed (whatever its verdicts), nonzero when
/// it could not run at all.
int run_drive(const DriveOptions& opt);

}  // namespace hsbench
