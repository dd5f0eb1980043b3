#include "train/model_zoo.h"

#include "baselines/cnn.h"
#include "baselines/deep_o_heat.h"
#include "baselines/gar.h"
#include "common/logging.h"
#include "core/sau_fno.h"

namespace saufno {
namespace train {
namespace {

core::SauFno::Config sau_config(int64_t in_ch, int64_t out_ch, int size_hint,
                                core::AttentionPlacement attn) {
  core::SauFno::Config c;
  c.in_channels = in_ch;
  c.out_channels = out_ch;
  if (size_hint >= 1) {
    // The published structure: [12, 12, 2] with a wide channel dimension.
    c.width = 32;
    c.modes1 = 12;
    c.modes2 = 12;
    c.n_fourier = 2;
    c.n_ufourier = 2;
    c.unet_base = 32;
    c.unet_depth = 4;
    c.attention_dim = 32;
  } else {
    // Smoke scale: same topology, reduced width/modes for one CPU core.
    c.width = 12;
    c.modes1 = 8;
    c.modes2 = 8;
    c.n_fourier = 1;
    c.n_ufourier = 2;
    c.unet_base = 12;
    c.unet_depth = 3;
    c.attention_dim = 12;
  }
  c.attention = attn;
  return c;
}

}  // namespace

std::shared_ptr<nn::Module> make_model(const std::string& name,
                                       int64_t in_channels,
                                       int64_t out_channels,
                                       std::uint64_t seed, int size_hint) {
  Rng rng(seed);
  if (name == "SAU-FNO" || name == "Ours") {
    return std::make_shared<core::SauFno>(
        sau_config(in_channels, out_channels, size_hint,
                   core::AttentionPlacement::kLast),
        rng);
  }
  if (name == "SAU-FNO-micro") {
    // Deliberately tiny SAU-FNO: the full architecture (spectral convs,
    // U-Net branch, attention) at a few thousand parameters. Used for
    // committed golden-regression fixtures (a checkpoint small enough to
    // live in git) and for fast rollout-serving tests; not part of the
    // Table II comparison set.
    core::SauFno::Config c = sau_config(in_channels, out_channels, 0,
                                        core::AttentionPlacement::kLast);
    c.width = 4;
    c.modes1 = 3;
    c.modes2 = 3;
    c.n_fourier = 1;
    c.n_ufourier = 1;
    c.unet_base = 4;
    c.unet_depth = 2;
    c.attention_dim = 4;
    return std::make_shared<core::SauFno>(c, rng);
  }
  if (name == "SAU-FNO-all-attn") {
    return std::make_shared<core::SauFno>(
        sau_config(in_channels, out_channels, size_hint,
                   core::AttentionPlacement::kAll),
        rng);
  }
  if (name == "U-FNO") {
    return std::make_shared<core::SauFno>(
        sau_config(in_channels, out_channels, size_hint,
                   core::AttentionPlacement::kNone),
        rng);
  }
  if (name == "FNO") {
    // Plain FNO (Li et al. [23], Eq. 6): SAU-FNO with no U-Fourier layer
    // and no attention.
    core::SauFno::Config c = sau_config(in_channels, out_channels, size_hint,
                                        core::AttentionPlacement::kNone);
    c.n_fourier = size_hint >= 1 ? 4 : 3;
    c.n_ufourier = 0;
    return std::make_shared<core::SauFno>(c, rng);
  }
  if (name == "DeepOHeat") {
    baselines::DeepOHeat::Config c;
    c.in_channels = in_channels;
    c.out_channels = out_channels;
    if (size_hint >= 1) {
      c.sensor_grid = 20;
      c.hidden = 128;
      c.p = 64;
      c.depth = 4;
    } else {
      c.sensor_grid = 12;
      c.hidden = 64;
      c.p = 32;
      c.depth = 3;
    }
    return std::make_shared<baselines::DeepOHeat>(c, rng);
  }
  if (name == "GAR") {
    baselines::Gar::Config c;
    c.in_channels = in_channels;
    c.out_channels = out_channels;
    if (size_hint >= 1) {
      c.coarse_width = 16;
      c.coarse_modes = 8;
      c.coarse_layers = 3;
    }
    return std::make_shared<baselines::Gar>(c, rng);
  }
  if (name == "CNN") {
    baselines::Cnn::Config c;
    c.in_channels = in_channels;
    c.out_channels = out_channels;
    if (size_hint >= 1) {
      c.hidden = 48;
      c.depth = 6;
    }
    return std::make_shared<baselines::Cnn>(c, rng);
  }
  fail("unknown model: " + name);
}

std::vector<std::string> table2_model_names() {
  return {"DeepOHeat", "FNO", "U-FNO", "GAR", "SAU-FNO"};
}

void save_deployable(const nn::Module& m, const std::string& name,
                     int64_t in_channels, int64_t out_channels,
                     const data::Normalizer& norm, const std::string& path,
                     int size_hint) {
  nn::CheckpointMeta meta;
  meta.model_name = name;
  meta.in_channels = in_channels;
  meta.out_channels = out_channels;
  meta.size_hint = size_hint;
  meta.has_normalizer = true;
  meta.normalizer = norm;
  nn::save_checkpoint(m, path, meta);
}

LoadedModel load_deployable(const std::string& path) {
  nn::CheckpointMeta meta = nn::read_checkpoint_meta(path);
  SAUFNO_CHECK(meta.version >= 2 && !meta.model_name.empty(),
               "checkpoint " + path +
                   " is not self-describing (v1 or missing model name); "
                   "re-save it with train::save_deployable");
  SAUFNO_CHECK(meta.in_channels >= 1 && meta.out_channels >= 1,
               "checkpoint " + path + " has no channel counts");
  // The seed only initializes parameters, and every one of them is about to
  // be overwritten by the stored weights (strict load), so any value works.
  auto model = make_model(meta.model_name, meta.in_channels,
                          meta.out_channels, /*seed=*/0, meta.size_hint);
  nn::load_checkpoint(*model, path);
  return {std::move(model), std::move(meta)};
}

}  // namespace train
}  // namespace saufno
