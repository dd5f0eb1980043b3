#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/inference_engine.h"

namespace saufno {
namespace serve {

/// Multi-model fleet manager: the name -> InferenceEngine map behind the
/// socket server. Models are REGISTERED (a name bound to a v2/v3 checkpoint
/// path) and hot-LOADED on first use; beyond `max_loaded` engines the
/// least-recently-acquired unpinned one is drained and evicted, so a server
/// can advertise a large catalog while bounding resident weights.
///
/// - `acquire` returns shared ownership: an eviction never pulls the rug
///   from under an in-flight request — the evicted engine is drained (its
///   queued work resolves, stragglers get ShutdownError) and destroyed when
///   the last holder releases it.
/// - `add_engine` installs a pre-built engine under a name with no backing
///   checkpoint. Such entries are PINNED: never auto-evicted (there is no
///   file to reload them from). Tests and benches use this to serve
///   in-memory models without touching disk.
/// - `reload` hot-swaps: builds a fresh engine from the registered path,
///   publishes it, then drains the old one — requests keep flowing during
///   the swap (they land on whichever engine the map held at acquire time).
/// - Unknown names throw runtime::RequestError (the request is at fault),
///   which the wire layer maps to WireCode::kRequest.
///
/// Thread-safe. Checkpoint loads run OUTSIDE the map lock; concurrent first
/// acquires of the same model wait on the loader instead of loading twice.
class Fleet {
 public:
  struct Config {
    /// Resident-engine cap (pinned entries count toward it but are never
    /// auto-evicted). 0 = unlimited.
    std::size_t max_loaded = 4;
    /// Engine template applied to every hot-load.
    runtime::InferenceEngine::Config engine;
    /// Drain budget when evicting/reloading/draining an engine.
    std::chrono::milliseconds evict_drain_timeout{2000};
  };

  explicit Fleet(Config cfg);
  /// Drains and destroys every loaded engine.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Bind `name` to a checkpoint path (no load yet). Re-registering an
  /// unloaded name updates the path; a loaded one keeps serving the old
  /// weights until reload()/evict().
  void register_checkpoint(const std::string& name, const std::string& path);

  /// Install a pre-built engine under `name` (pinned; see class comment).
  void add_engine(const std::string& name,
                  std::shared_ptr<runtime::InferenceEngine> engine);

  /// Shared handle to the named engine, hot-loading it if registered but
  /// not resident. Throws runtime::RequestError for unknown names and
  /// runtime::ShutdownError once the fleet is draining.
  std::shared_ptr<runtime::InferenceEngine> acquire(const std::string& name);

  /// Drain + unload the named engine (it stays registered; the next acquire
  /// reloads from the path). Returns false if it was not resident. Pinned
  /// entries CAN be evicted explicitly — they just can't come back.
  bool evict(const std::string& name);

  /// Hot-swap: build a fresh engine from the registered path, publish it,
  /// drain the old one. Throws RequestError if `name` has no checkpoint.
  void reload(const std::string& name);

  /// Stop admissions fleet-wide and drain every resident engine. After this
  /// acquire() throws ShutdownError. Returns requests failed by the drains.
  std::size_t drain_all(std::chrono::milliseconds timeout);

  bool is_loaded(const std::string& name) const;
  std::size_t loaded_count() const;
  int64_t loads() const { return loads_; }
  int64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::string path;  // "" for add_engine entries
    std::shared_ptr<runtime::InferenceEngine> engine;
    bool pinned = false;
    bool loading = false;
    std::uint64_t last_used = 0;
  };

  /// Pre: lock held. Drop LRU unpinned engines until under max_loaded;
  /// returns the dropped engines for the caller to drain OUTSIDE the lock.
  std::vector<std::shared_ptr<runtime::InferenceEngine>> evict_over_cap();
  void drain_engine(const std::shared_ptr<runtime::InferenceEngine>& e);

  Config cfg_;
  mutable std::mutex m_;
  std::condition_variable load_cv_;
  std::map<std::string, Entry> entries_;
  std::uint64_t use_clock_ = 0;
  bool draining_ = false;
  std::atomic<int64_t> loads_{0};     // atomics: the accessors read unlocked
  std::atomic<int64_t> evictions_{0};
};

}  // namespace serve
}  // namespace saufno
