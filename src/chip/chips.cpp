#include "chip/chips.h"

#include "common/logging.h"

namespace saufno {
namespace chip {
namespace {

constexpr double kMm = 1e-3;

/// Append TIM + heat spreader + heat-sink base above the device stack.
/// Table I gives the spreader (30x30x1 mm) and sink (60x60x6.9 mm, 21 fins
/// of 1x60x50 mm) at their physical footprints; the solvers model the stack
/// at the die footprint and fold the fins + lateral spreading gain into the
/// effective top-surface coefficient h_top instead of meshing them.
void append_cooling(ChipSpec& c, double tim_thickness) {
  c.layers.push_back({"TIM", tim_thickness, materials::tim(), false, {}});
  c.layers.push_back(
      {"heat-spreader", 1.0 * kMm, materials::copper(), false, {}});
  c.layers.push_back(
      {"heat-sink-base", 6.9 * kMm, materials::copper(), false, {}});
}

Block core(const std::string& n, double x, double y, double w, double h) {
  return {n, BlockKind::kCore, x, y, w, h};
}
Block l1(const std::string& n, double x, double y, double w, double h) {
  return {n, BlockKind::kL1Cache, x, y, w, h};
}
Block l2(const std::string& n, double x, double y, double w, double h) {
  return {n, BlockKind::kL2Cache, x, y, w, h};
}

}  // namespace

ChipSpec make_chip1() {
  ChipSpec c;
  c.name = "chip1";
  c.die_w = 16.0 * kMm;
  c.die_h = 16.0 * kMm;

  // Lower device layer: three L2 caches (Fig. 3, "L2 Cache Layer").
  LayerSpec cache_layer;
  cache_layer.name = "l2-cache-layer";
  cache_layer.thickness = 0.15 * kMm;
  cache_layer.material = materials::device_silicon();
  cache_layer.is_device = true;
  cache_layer.floorplan.blocks = {
      l2("L2_1", 0.00, 0.00, 1.00, 0.34),
      l2("L2_2", 0.00, 0.34, 0.50, 0.66),
      l2("L2_3", 0.50, 0.34, 0.50, 0.66),
  };

  // Upper device layer: core, two L1s, one L2 ("Core & L1 / L2 Cache").
  LayerSpec core_layer;
  core_layer.name = "core-layer";
  core_layer.thickness = 0.15 * kMm;
  core_layer.material = materials::device_silicon();
  core_layer.is_device = true;
  core_layer.floorplan.blocks = {
      core("Core", 0.00, 0.00, 0.60, 0.60),
      l1("L1_1", 0.60, 0.00, 0.40, 0.30),
      l1("L1_2", 0.60, 0.30, 0.40, 0.30),
      l2("L2", 0.00, 0.60, 1.00, 0.40),
  };

  c.layers = {cache_layer, core_layer};
  append_cooling(c, 0.02 * kMm);
  // Calibrated so the field solver's junction temperatures land in the
  // paper's Table IV band (max ~381 K at 318 K ambient).
  c.h_top = 1.4e4;
  c.total_power_min = 90.0;
  c.total_power_max = 195.0;
  c.validate();
  return c;
}

ChipSpec make_chip2() {
  ChipSpec c;
  c.name = "chip2";
  c.die_w = 12.4 * kMm;
  c.die_h = 12.76 * kMm;

  // Two identical L2 layers, two caches each.
  LayerSpec l2_layer;
  l2_layer.name = "l2-cache-layer";
  l2_layer.thickness = 0.15 * kMm;
  l2_layer.material = materials::device_silicon();
  l2_layer.is_device = true;
  l2_layer.floorplan.blocks = {
      l2("L2_1", 0.00, 0.00, 1.00, 0.50),
      l2("L2_2", 0.00, 0.50, 1.00, 0.50),
  };
  LayerSpec l2_layer_b = l2_layer;
  l2_layer_b.name = "l2-cache-layer-2";
  for (auto& b : l2_layer_b.floorplan.blocks) b.name += "b";

  // Four-core layer, closest to the heat sink (paper: "the top layer
  // closest to the heatsink consisting of four cores").
  LayerSpec core_layer;
  core_layer.name = "core-layer";
  core_layer.thickness = 0.15 * kMm;
  core_layer.material = materials::device_silicon();
  core_layer.is_device = true;
  core_layer.floorplan.blocks = {
      core("Core1", 0.00, 0.00, 0.50, 0.50),
      core("Core2", 0.50, 0.00, 0.50, 0.50),
      core("Core3", 0.00, 0.50, 0.50, 0.50),
      core("Core4", 0.50, 0.50, 0.50, 0.50),
  };

  c.layers = {l2_layer, l2_layer_b, core_layer};
  append_cooling(c, 0.02 * kMm);
  // Calibrated toward Table IV's chip2 band (max ~380 K).
  c.h_top = 1.6e4;
  c.total_power_min = 65.0;
  c.total_power_max = 140.0;
  c.validate();
  return c;
}

ChipSpec make_chip3() {
  ChipSpec c;
  c.name = "chip3";
  c.die_w = 10.0 * kMm;
  c.die_h = 10.0 * kMm;

  // Lower device layer: four L2 caches in a 2x2 arrangement.
  LayerSpec cache_layer;
  cache_layer.name = "l2-cache-layer";
  cache_layer.thickness = 0.1 * kMm;
  cache_layer.material = materials::device_silicon();
  cache_layer.is_device = true;
  cache_layer.floorplan.blocks = {
      l2("L2_1", 0.00, 0.00, 0.50, 0.50),
      l2("L2_2", 0.50, 0.00, 0.50, 0.50),
      l2("L2_3", 0.00, 0.50, 0.50, 0.50),
      l2("L2_4", 0.50, 0.50, 0.50, 0.50),
  };

  // Upper device layer: eight cores (with their L1s) around a crossbar.
  LayerSpec core_layer;
  core_layer.name = "core-layer";
  core_layer.thickness = 0.1 * kMm;
  core_layer.material = materials::device_silicon();
  core_layer.is_device = true;
  core_layer.floorplan.blocks = {
      core("C1", 0.00, 0.00, 0.25, 0.40), core("C2", 0.25, 0.00, 0.25, 0.40),
      core("C3", 0.50, 0.00, 0.25, 0.40), core("C4", 0.75, 0.00, 0.25, 0.40),
      {"CrossBar", BlockKind::kInterconnect, 0.00, 0.40, 1.00, 0.20},
      core("C5", 0.00, 0.60, 0.25, 0.40), core("C6", 0.25, 0.60, 0.25, 0.40),
      core("C7", 0.50, 0.60, 0.25, 0.40), core("C8", 0.75, 0.60, 0.25, 0.40),
  };

  c.layers = {cache_layer, core_layer};
  append_cooling(c, 0.052 * kMm);
  // Smaller die at similar power -> the much hotter field of Table IV
  // (max ~422 K vs ~381 K on chip1); h_top calibrated accordingly.
  c.h_top = 1.8e4;
  c.total_power_min = 67.0;
  c.total_power_max = 135.0;
  c.validate();
  return c;
}

std::vector<ChipSpec> all_chips() {
  return {make_chip1(), make_chip2(), make_chip3()};
}

ChipSpec chip_by_name(const std::string& name) {
  if (name == "chip1") return make_chip1();
  if (name == "chip2") return make_chip2();
  if (name == "chip3") return make_chip3();
  fail("unknown chip: " + name);
}

}  // namespace chip
}  // namespace saufno
