#pragma once

#include <vector>

#include "chip/power_gen.h"

namespace saufno {
namespace thermal {

/// Voxelization of a ChipSpec for the finite-volume solver.
///
/// Lateral: nx x ny uniform cells over the die footprint. Vertical: each
/// physical layer contributes `z_cells` voxels (thin layers 1, spreader 2,
/// sink 3 by default; the refined "COMSOL-substitute" mode doubles
/// everything). Cell ordering is z-major: idx = (iz * ny + iy) * nx + ix.
struct ThermalGrid {
  int nx = 0, ny = 0, nz = 0;
  double dx = 0, dy = 0;          // lateral cell size (m)
  std::vector<double> dz;         // per-z-cell thickness (m), size nz
  std::vector<int> layer_of_z;    // chip layer index per z cell
  std::vector<double> k;          // conductivity per cell (W/mK), nz*ny*nx
  std::vector<double> c;          // volumetric heat capacity (J/m^3K)
  std::vector<double> q;          // volumetric heat source (W/m^3)
  double h_top = 0, h_bottom = 0; // Robin coefficients (W/m^2K)
  double ambient = 0;             // K

  int64_t num_cells() const { return static_cast<int64_t>(nz) * ny * nx; }
  int64_t cell(int iz, int iy, int ix) const {
    return (static_cast<int64_t>(iz) * ny + iy) * nx + ix;
  }

  /// Total injected power, integral of q over the volume (W). Used by the
  /// energy-conservation tests.
  double total_power() const;
};

/// Mesh-refinement knob: `refine`=1 is the MTA-substitute production grid,
/// `refine`=2 doubles lateral resolution and z subdivision (the
/// finest-mesh COMSOL stand-in of Table IV).
ThermalGrid build_grid(const chip::ChipSpec& spec,
                       const chip::PowerAssignment& pa, int nx, int ny,
                       int refine = 1);

}  // namespace thermal
}  // namespace saufno
