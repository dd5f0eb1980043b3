// Reproduces Table IV: maximum and minimum temperature comparison among
// COMSOL (refined-mesh FDM substitute), MTA (FDM substitute), HotSpot
// (compact RC substitute) and SAU-FNO on steady-state samples of chips 1-3,
// plus the Ours-vs-COMSOL error column.
//
// Paper's published shape: COMSOL ~= MTA ~= Ours (within ~0.25 K), HotSpot
// ~10 K hotter across the board.

#include <cstdio>

#include "bench_common.h"
#include "common/csv.h"
#include "tensor/tensor_ops.h"
#include "thermal/compact_rc.h"

using namespace saufno;
using namespace saufno::bench;

int main() {
  set_log_level(LogLevel::kWarn);
  print_header("Table IV: solver comparison on chips 1-3");
  const BenchScale s = BenchScale::current();
  const int n_eval = bench_scale() == Scale::kPaper ? 20 : 5;

  CsvWriter csv("table4_results.csv");
  csv.row({"chip", "metric", "comsol", "mta", "hotspot", "ours", "err"});
  TablePrinter table(
      {"Chip", "Metric", "COMSOL*", "MTA*", "HotSpot*", "Ours", "Err"},
      {8, 9, 11, 11, 11, 11, 9});

  for (const auto& spec : chip::all_chips()) {
    // Train a SAU-FNO surrogate for this chip at the high resolution.
    auto [train_set, test_set] =
        make_split(spec, s.res_high, s.n_train, s.n_test, /*seed=*/2024);
    const auto norm =
        data::Normalizer::fit(train_set, spec.num_device_layers());
    auto model =
        train::make_model("SAU-FNO", train_set.in_channels(),
                          train_set.out_channels(), 3200, s.size_hint);
    train::TrainConfig tc;
    tc.epochs = s.epochs;
    tc.batch_size = s.batch;
    tc.lr = s.lr;
    tc.lr_step = std::max(1, s.epochs / 3);
    train::Trainer tr(*model, norm, tc);
    tr.fit(train_set);

    // Fresh power samples for the comparison (a different seed from the
    // training data, as in the paper's 20 held-out distributions).
    data::GenConfig eval_cfg;
    eval_cfg.resolution = s.res_high;
    eval_cfg.n_samples = n_eval;
    eval_cfg.seed = 9000;
    eval_cfg.cache = false;
    const auto assignments = data::regenerate_assignments(spec, eval_cfg);

    thermal::FdmSolver solver;
    thermal::CompactRcSolver rc(spec);
    chip::PowerGenerator pgen(spec);

    double comsol_max = 0, comsol_min = 0, mta_max = 0, mta_min = 0;
    double hs_max = 0, hs_min = 0, ours_max = 0, ours_min = 0;
    for (const auto& pa : assignments) {
      // COMSOL substitute: refined mesh.
      const auto fine =
          solver.solve(thermal::build_grid(spec, pa, s.res_high, s.res_high, 2));
      comsol_max += fine.max_temperature();
      comsol_min += fine.min_temperature();
      // MTA substitute: production mesh.
      const auto coarse =
          solver.solve(thermal::build_grid(spec, pa, s.res_high, s.res_high, 1));
      mta_max += coarse.max_temperature();
      mta_min += coarse.min_temperature();
      // HotSpot substitute: compact RC network.
      const auto rc_res = rc.solve(pa);
      hs_max += rc_res.max_temperature();
      hs_min += rc_res.min_temperature();
      // Ours: SAU-FNO surrogate on the rasterized power maps.
      const auto maps = pgen.rasterize(pa, s.res_high, s.res_high);
      const int n_dev = spec.num_device_layers();
      Tensor x({1, n_dev + 2, s.res_high, s.res_high});
      const int64_t plane = static_cast<int64_t>(s.res_high) * s.res_high;
      for (int c = 0; c < n_dev; ++c) {
        std::copy(maps[static_cast<std::size_t>(c)].begin(),
                  maps[static_cast<std::size_t>(c)].end(),
                  x.data() + c * plane);
      }
      for (int i = 0; i < s.res_high; ++i) {
        for (int j = 0; j < s.res_high; ++j) {
          x.data()[n_dev * plane + i * s.res_high + j] =
              static_cast<float>(i) / (s.res_high - 1);
          x.data()[(n_dev + 1) * plane + i * s.res_high + j] =
              static_cast<float>(j) / (s.res_high - 1);
        }
      }
      Tensor pred = tr.predict(x);
      ours_max += max_all(pred);
      ours_min += min_all(pred);
    }
    const double inv = 1.0 / n_eval;
    comsol_max *= inv; comsol_min *= inv;
    mta_max *= inv;    mta_min *= inv;
    hs_max *= inv;     hs_min *= inv;
    ours_max *= inv;   ours_min *= inv;

    table.add_row({spec.name, "Max(K)", fmt(comsol_max), fmt(mta_max),
                   fmt(hs_max), fmt(ours_max), fmt(ours_max - comsol_max)});
    table.add_row({spec.name, "Min(K)", fmt(comsol_min), fmt(mta_min),
                   fmt(hs_min), fmt(ours_min), fmt(ours_min - comsol_min)});
    csv.row({spec.name, "max", fmt(comsol_max, 3), fmt(mta_max, 3),
             fmt(hs_max, 3), fmt(ours_max, 3), fmt(ours_max - comsol_max, 3)});
    csv.row({spec.name, "min", fmt(comsol_min, 3), fmt(mta_min, 3),
             fmt(hs_min, 3), fmt(ours_min, 3), fmt(ours_min - comsol_min, 3)});
    std::fprintf(stderr, "[table4] %s done\n", spec.name.c_str());
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("* substitutes: COMSOL = refined-mesh FDM, MTA = FDM, HotSpot "
              "= compact RC network\n");
  std::printf("rows also written to table4_results.csv\n");
  std::printf(
      "expected shape (paper): COMSOL ~= MTA ~= Ours; HotSpot ~10 K "
      "hotter; |Err| small\n");
  return 0;
}
