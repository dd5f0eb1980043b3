#include "serve/fleet.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace saufno {
namespace serve {

Fleet::Fleet(Config cfg) : cfg_(cfg) {}

Fleet::~Fleet() {
  // Engines drain in their own destructors too; an explicit pass keeps the
  // shutdown order deterministic (stop admissions before teardown).
  drain_all(cfg_.evict_drain_timeout);
}

void Fleet::register_checkpoint(const std::string& name,
                                const std::string& path) {
  std::lock_guard<std::mutex> lk(m_);
  Entry& e = entries_[name];  // creates or updates
  e.path = path;
}

void Fleet::add_engine(const std::string& name,
                       std::shared_ptr<runtime::InferenceEngine> engine) {
  std::lock_guard<std::mutex> lk(m_);
  Entry& e = entries_[name];
  e.engine = std::move(engine);
  e.pinned = true;
  e.last_used = ++use_clock_;
}

std::shared_ptr<runtime::InferenceEngine> Fleet::acquire(
    const std::string& name) {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    if (draining_) {
      throw runtime::ShutdownError("fleet is draining; model '" + name +
                                   "' no longer serves");
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw runtime::RequestError("unknown model '" + name +
                                  "' (not registered with the fleet)");
    }
    Entry& e = it->second;
    if (e.engine != nullptr) {
      e.last_used = ++use_clock_;
      return e.engine;
    }
    if (e.path.empty()) {
      throw runtime::RequestError("model '" + name +
                                  "' was evicted and has no checkpoint to "
                                  "reload from");
    }
    if (e.loading) {
      // Another thread is loading this model; wait for its publish.
      load_cv_.wait(lk);
      continue;  // re-validate everything (drain/evict may have raced)
    }
    e.loading = true;
    const std::string path = e.path;
    lk.unlock();

    std::shared_ptr<runtime::InferenceEngine> fresh;
    std::exception_ptr load_error;
    try {
      fresh = runtime::InferenceEngine::from_checkpoint(path, cfg_.engine);
    } catch (...) {
      load_error = std::current_exception();
    }

    lk.lock();
    auto it2 = entries_.find(name);
    if (it2 != entries_.end()) it2->second.loading = false;
    load_cv_.notify_all();
    if (load_error != nullptr) {
      // Surface as a request fault: THIS request named a model whose
      // checkpoint cannot be served; the fleet itself is healthy.
      std::string what = "unknown error";
      try {
        std::rethrow_exception(load_error);
      } catch (const std::exception& ex) {
        what = ex.what();
      } catch (...) {
      }
      throw runtime::RequestError("model '" + name + "' failed to load from " +
                                  path + ": " + what);
    }
    if (it2 == entries_.end()) {
      throw runtime::RequestError("model '" + name +
                                  "' was unregistered during load");
    }
    if (it2->second.engine == nullptr) {
      it2->second.engine = fresh;
      ++loads_;
      static obs::Counter& c = obs::counter("fleet.loads");
      c.add();
    }
    it2->second.last_used = ++use_clock_;
    auto handle = it2->second.engine;
    auto dropped = evict_over_cap();
    lk.unlock();
    for (auto& d : dropped) drain_engine(d);
    return handle;
  }
}

std::vector<std::shared_ptr<runtime::InferenceEngine>> Fleet::evict_over_cap() {
  std::vector<std::shared_ptr<runtime::InferenceEngine>> dropped;
  if (cfg_.max_loaded == 0) return dropped;
  for (;;) {
    std::size_t resident = 0;
    std::map<std::string, Entry>::iterator lru = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.engine == nullptr) continue;
      ++resident;
      if (it->second.pinned) continue;
      if (lru == entries_.end() ||
          it->second.last_used < lru->second.last_used) {
        lru = it;
      }
    }
    if (resident <= cfg_.max_loaded || lru == entries_.end()) return dropped;
    SAUFNO_INFO << "fleet: evicting LRU model '" << lru->first << "' ("
                << resident << " resident > cap " << cfg_.max_loaded << ")";
    dropped.push_back(std::move(lru->second.engine));
    lru->second.engine = nullptr;
    ++evictions_;
    static obs::Counter& c = obs::counter("fleet.evictions");
    c.add();
  }
}

void Fleet::drain_engine(
    const std::shared_ptr<runtime::InferenceEngine>& e) {
  if (e == nullptr) return;
  try {
    e->drain(cfg_.evict_drain_timeout);
  } catch (const std::exception& ex) {
    SAUFNO_WARN << "fleet: drain on evicted engine failed: " << ex.what();
  }
}

bool Fleet::evict(const std::string& name) {
  std::shared_ptr<runtime::InferenceEngine> victim;
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.engine == nullptr) return false;
    victim = std::move(it->second.engine);
    it->second.engine = nullptr;
    ++evictions_;
  }
  static obs::Counter& c = obs::counter("fleet.evictions");
  c.add();
  drain_engine(victim);
  return true;
}

void Fleet::reload(const std::string& name) {
  std::string path;
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.path.empty()) {
      throw runtime::RequestError("model '" + name +
                                  "' has no registered checkpoint to reload");
    }
    path = it->second.path;
  }
  // Build the replacement before touching the live one: a failed load
  // leaves the old engine serving.
  auto fresh = runtime::InferenceEngine::from_checkpoint(path, cfg_.engine);
  std::shared_ptr<runtime::InferenceEngine> old;
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw runtime::RequestError("model '" + name +
                                  "' was unregistered during reload");
    }
    old = std::move(it->second.engine);
    it->second.engine = std::move(fresh);
    it->second.last_used = ++use_clock_;
    ++loads_;
  }
  drain_engine(old);
}

std::size_t Fleet::drain_all(std::chrono::milliseconds timeout) {
  std::vector<std::shared_ptr<runtime::InferenceEngine>> resident;
  {
    std::lock_guard<std::mutex> lk(m_);
    draining_ = true;
    for (auto& kv : entries_) {
      if (kv.second.engine != nullptr) resident.push_back(kv.second.engine);
    }
  }
  load_cv_.notify_all();
  std::size_t failed = 0;
  for (auto& e : resident) {
    try {
      failed += e->drain(timeout);
    } catch (const std::exception& ex) {
      SAUFNO_WARN << "fleet: drain failed: " << ex.what();
    }
  }
  return failed;
}

bool Fleet::is_loaded(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.engine != nullptr;
}

std::size_t Fleet::loaded_count() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t n = 0;
  for (const auto& kv : entries_) n += kv.second.engine != nullptr ? 1 : 0;
  return n;
}

}  // namespace serve
}  // namespace saufno
