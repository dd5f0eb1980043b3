// Reproduces Table I: "Geometric Structures and Thermal Parameters of
// 3D-ICs" — printed from the in-code chip catalog, verifying that the
// library's built-in specs are the paper's.

#include <cstdio>

#include "chip/chips.h"
#include "common/ascii.h"

using namespace saufno;

namespace {

std::string size_str(double w, double h, double t) {
  return fmt(w * 1e3, 2) + "x" + fmt(h * 1e3, 2) + "x" + fmt(t * 1e3, 3) +
         " mm";
}

}  // namespace

int main() {
  std::printf("== Table I: geometric structures & thermal parameters ==\n\n");
  const auto chips = chip::all_chips();

  TablePrinter table(
      {"Layer", "Chip", "Size (WxHxT)", "k (W/mK)", "c (J/m3K)", "power?"},
      {22, 8, 26, 12, 14, 8});
  for (const auto& c : chips) {
    for (const auto& l : c.layers) {
      table.add_row({l.name, c.name, size_str(c.die_w, c.die_h, l.thickness),
                     fmt(l.material.conductivity, 0),
                     fmt(l.material.heat_capacity, 0),
                     l.is_device ? "yes" : "no"});
    }
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("TSV array: diameter %.3f mm, pitch %.3f mm, k = %.0f W/mK\n",
              chips[0].tsv_diameter * 1e3, chips[0].tsv_pitch * 1e3,
              chips[0].tsv_conductivity);
  std::printf(
      "note: spreader (30x30x1 mm) and sink (60x60x6.9 mm + 21 fins of\n"
      "1x60x50 mm) are modeled at the die footprint with the fins folded\n"
      "into h_top\n\n");

  TablePrinter fp({"Chip", "Device layer", "Blocks"}, {8, 22, 60});
  for (const auto& c : chips) {
    for (const auto& l : c.layers) {
      if (!l.is_device) continue;
      std::string blocks;
      for (const auto& b : l.floorplan.blocks) {
        if (!blocks.empty()) blocks += ", ";
        blocks += b.name;
      }
      fp.add_row({c.name, l.name, blocks});
    }
  }
  std::printf("%s\n", fp.str().c_str());
  return 0;
}
