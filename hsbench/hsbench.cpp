// hsbench — the benchmark's measuring binary. run.py builds and drives it;
// it never starts kem_server itself.
//
//   hsbench drive  --port P --workload W --seed S --warmup-s A --seconds T
//                  --server-pid PID [--ping-us U] [--spans FILE]
//   hsbench layers --workload W --seed S --service-s T [--spans FILE]
//   hsbench model
//
// Each prints one JSON object on stdout.
#include <iostream>
#include <string>

#include "common.h"
#include "layers.h"
#include "wire.h"

namespace {

int usage() {
  std::cerr << "usage: hsbench drive|layers|model [--flag value ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "model") return run_model();

  std::vector<std::pair<std::string, std::string>> flags;
  if (!parse_flags(argc, argv, 2, &flags)) return usage();
  DriveOptions drive;
  LayersOptions layers;
  try {
    for (const auto& [k, v] : flags) {
      if (k == "workload") {
        drive.spec = layers.spec = find_workload(v);
        if (!drive.spec) {
          std::cerr << "hsbench: unknown workload " << v << "\n";
          return 2;
        }
      } else if (k == "seed") {
        drive.seed = layers.seed = std::stoull(v);
      } else if (k == "port") {
        drive.port = std::stoi(v);
      } else if (k == "warmup-s") {
        drive.warmup_s = std::stod(v);
      } else if (k == "seconds") {
        drive.window_s = std::stod(v);
      } else if (k == "server-pid") {
        drive.server_pid = std::stoi(v);
      } else if (k == "ping-us") {
        drive.ping_interval_us = std::stoull(v);
      } else if (k == "service-s") {
        layers.service_s = std::stod(v);
      } else if (k == "spans") {
        drive.spans_path = layers.spans_path = v;
      } else {
        std::cerr << "hsbench: unknown flag --" << k << "\n";
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "hsbench: bad flag value: " << e.what() << "\n";
    return 2;
  }
  if (!drive.spec) return usage();
  if (cmd == "drive") {
    if (drive.port <= 0 || drive.server_pid <= 0 || drive.window_s <= 0)
      return usage();
    return run_drive(drive);
  }
  if (cmd == "layers") return run_layers(layers);
  return usage();
}
