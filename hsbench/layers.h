// Levels 2-4 of the traced run and the modeled-cycle check (see
// layers.cpp).
#pragma once

#include <string>

#include "common.h"

namespace hsbench {

struct LayersOptions {
  const WorkloadSpec* spec = nullptr;
  u64 seed = 0;
  /// Length of the level-2 measured window (after a short warmup).
  double service_s = 3.0;
  std::string spans_path;
};

/// Run levels 2-4 and print one JSON object: per-layer metrics, the
/// correctness checks they made, and the stage self-time breakdown.
int run_layers(const LayersOptions& opt);

/// Print the golden-backend modeled cycles of one encaps and one decaps
/// per served scheme (the inputs of table2_kem_cycles' scheme block).
int run_model();

}  // namespace hsbench
