#include "thermal/grid.h"

#include "common/logging.h"

namespace saufno {
namespace thermal {
namespace {

/// Baseline z-subdivision per layer kind: thin active/TIM layers get one
/// voxel, the thick copper parts enough to resolve the vertical gradient.
int z_cells_for(const chip::LayerSpec& layer) {
  if (layer.thickness > 4e-3) return 3;  // heat-sink base
  if (layer.thickness > 4e-4) return 2;  // spreader
  return 1;                              // device layers, TIM
}

}  // namespace

double ThermalGrid::total_power() const {
  double p = 0.0;
  const double cell_area = dx * dy;
  for (int iz = 0; iz < nz; ++iz) {
    const double vol = cell_area * dz[static_cast<std::size_t>(iz)];
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        p += q[static_cast<std::size_t>(cell(iz, iy, ix))] * vol;
      }
    }
  }
  return p;
}

ThermalGrid build_grid(const chip::ChipSpec& spec,
                       const chip::PowerAssignment& pa, int nx, int ny,
                       int refine) {
  SAUFNO_CHECK(refine >= 1 && refine <= 4, "bad refine factor");
  ThermalGrid g;
  g.nx = nx * refine;
  g.ny = ny * refine;
  g.dx = spec.die_w / g.nx;
  g.dy = spec.die_h / g.ny;
  g.h_top = spec.h_top;
  g.h_bottom = spec.h_bottom;
  g.ambient = spec.ambient;

  // Vertical layout.
  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    const auto& layer = spec.layers[li];
    const int n = z_cells_for(layer) * refine;
    for (int s = 0; s < n; ++s) {
      g.dz.push_back(layer.thickness / n);
      g.layer_of_z.push_back(static_cast<int>(li));
    }
  }
  g.nz = static_cast<int>(g.dz.size());
  g.k.assign(static_cast<std::size_t>(g.num_cells()), 0.0);
  g.c.assign(static_cast<std::size_t>(g.num_cells()), 0.0);
  g.q.assign(static_cast<std::size_t>(g.num_cells()), 0.0);

  // Conductivity: per-layer bulk value; device layers get the TSV-array
  // effective value (identity for Table I's parameters, but kept explicit).
  for (int iz = 0; iz < g.nz; ++iz) {
    const auto& layer =
        spec.layers[static_cast<std::size_t>(g.layer_of_z[static_cast<std::size_t>(iz)])];
    double kk = layer.material.conductivity;
    if (layer.is_device) {
      kk = chip::tsv_effective_conductivity(kk, spec.tsv_conductivity,
                                            spec.tsv_diameter, spec.tsv_pitch);
    }
    for (int iy = 0; iy < g.ny; ++iy) {
      for (int ix = 0; ix < g.nx; ++ix) {
        g.k[static_cast<std::size_t>(g.cell(iz, iy, ix))] = kk;
        g.c[static_cast<std::size_t>(g.cell(iz, iy, ix))] =
            layer.material.heat_capacity;
      }
    }
  }

  // Power: rasterize the assignment at grid resolution and convert areal
  // density (W/m^2) to volumetric (W/m^3) within each device layer's cells.
  chip::PowerGenerator gen(spec);
  const auto maps = gen.rasterize(pa, g.ny, g.nx);
  const auto device_layers = spec.device_layer_indices();
  SAUFNO_CHECK(maps.size() == device_layers.size(), "raster/layer mismatch");
  for (std::size_t d = 0; d < device_layers.size(); ++d) {
    const int li = device_layers[d];
    // Count the z-cells of this layer so density splits evenly among them.
    int cells_in_layer = 0;
    for (int iz = 0; iz < g.nz; ++iz) {
      if (g.layer_of_z[static_cast<std::size_t>(iz)] == li) ++cells_in_layer;
    }
    const double layer_thickness =
        spec.layers[static_cast<std::size_t>(li)].thickness;
    for (int iz = 0; iz < g.nz; ++iz) {
      if (g.layer_of_z[static_cast<std::size_t>(iz)] != li) continue;
      for (int iy = 0; iy < g.ny; ++iy) {
        for (int ix = 0; ix < g.nx; ++ix) {
          const double areal =
              maps[d][static_cast<std::size_t>(iy) * g.nx + ix];
          g.q[static_cast<std::size_t>(g.cell(iz, iy, ix))] =
              areal / layer_thickness;
        }
      }
    }
    (void)cells_in_layer;
  }
  return g;
}

}  // namespace thermal
}  // namespace saufno
