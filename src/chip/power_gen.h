#pragma once

#include <map>

#include "chip/floorplan.h"
#include "common/rng.h"

namespace saufno {
namespace chip {

/// One workload: watts per named block, per device layer.
struct PowerAssignment {
  /// power[layer_index][block_index] in W; indices follow
  /// ChipSpec::layers / Floorplan::blocks order.
  std::vector<std::vector<double>> power;

  double total() const;
};

/// Random workload generator (Section IV-A "Data Generation"): power levels
/// are assigned per functional block "while ensuring the total power
/// remained within an appropriate range". Blocks are weighted by kind —
/// cores dissipate roughly 3x the areal density of caches, interconnect
/// sits between — then jittered and rescaled so the total lands uniformly
/// in [total_power_min, total_power_max].
class PowerGenerator {
 public:
  explicit PowerGenerator(const ChipSpec& spec);

  PowerAssignment sample(Rng& rng) const;

  /// Rasterize an assignment to per-device-layer areal power-density maps
  /// (W/m^2), row-major [ny, nx], one map per device layer (stack order).
  /// Cells covered partially by a block receive the overlapped fraction —
  /// each map is one input channel of the models.
  std::vector<std::vector<float>> rasterize(const PowerAssignment& pa,
                                            int ny, int nx) const;

 private:
  const ChipSpec spec_;
  static double kind_weight(BlockKind k);
};

}  // namespace chip
}  // namespace saufno
