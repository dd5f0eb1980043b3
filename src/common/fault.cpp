#include "common/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace saufno {
namespace fault {
namespace {

std::atomic<bool> g_enabled{false};

/// splitmix64: decision stream is a pure function of (seed, site, index).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Per-site evaluation counter + fired tally. Sites are few and created
/// once per configure(), so map lookup happens only on the (already
/// fault-enabled) slow path.
struct SiteState {
  std::atomic<std::int64_t> evals{0};
  std::atomic<std::int64_t> fired{0};
  std::atomic<std::int64_t> thrown{0};
};

struct Config {
  std::vector<Rule> rules;
  std::uint64_t seed = 0;
  // Sites are pre-registered from the rules plus looked up lazily for
  // wildcard rules; guarded by m (off the disabled hot path entirely).
  std::mutex m;
  std::map<std::string, std::unique_ptr<SiteState>> sites;

  SiteState& site(const std::string& name) {
    std::lock_guard<std::mutex> lk(m);
    auto& slot = sites[name];
    if (!slot) slot = std::make_unique<SiteState>();
    return *slot;
  }
};

/// Active config, swapped atomically on configure()/clear(). Old configs
/// are immortal (like the obs registry): a thread mid-point() may still
/// hold the previous pointer, and configure() happens a handful of times
/// per process (tests), never in steady state. Every config ever created
/// is parked in retired() so the memory stays reachable — LeakSanitizer
/// only reports unreachable blocks, and the ASan CI lane runs the whole
/// suite, which reconfigures dozens of times.
std::atomic<Config*> g_config{nullptr};

std::mutex g_retired_m;
std::vector<Config*>& retired() {
  static std::vector<Config*>* v = new std::vector<Config*>();
  return *v;
}

/// One-time SAUFNO_FAULT environment pickup.
std::once_flag g_env_once;

void install(Config* cfg) {
  g_config.store(cfg, std::memory_order_release);
  g_enabled.store(cfg != nullptr && !cfg->rules.empty(),
                  std::memory_order_release);
}

void init_from_env() {
  const char* spec = std::getenv("SAUFNO_FAULT");
  if (spec == nullptr || *spec == '\0') return;
  const int seed = env_int("SAUFNO_FAULT_SEED", 1234);
  if (!configure(spec, static_cast<std::uint64_t>(seed))) {
    SAUFNO_WARN << "SAUFNO_FAULT=\"" << spec
                << "\" could not be parsed; fault injection disabled";
  } else {
    SAUFNO_INFO << "fault injection armed: SAUFNO_FAULT=" << spec
                << " seed=" << seed;
  }
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_int(const std::string& s, long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

std::vector<Rule> parse_spec(const std::string& spec, std::string* error) {
  std::vector<Rule> rules;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::vector<Rule>();
  };
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string rule_str =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (rule_str.empty()) {
      if (spec.empty()) break;
      return fail("empty rule (doubled or trailing comma)");
    }
    Rule r;
    bool first_token = true;
    bool have_action = false;
    std::size_t tpos = 0;
    while (tpos <= rule_str.size()) {
      const std::size_t colon = rule_str.find(':', tpos);
      const std::string tok =
          rule_str.substr(tpos, colon == std::string::npos ? std::string::npos
                                                           : colon - tpos);
      tpos = colon == std::string::npos ? rule_str.size() + 1 : colon + 1;
      if (tok.empty()) return fail("empty token in rule \"" + rule_str + "\"");
      const std::size_t eq = tok.find('=');
      if (eq != std::string::npos) {
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "p") {
          double p = 0.0;
          if (!parse_double(val, &p) || p < 0.0 || p > 1.0) {
            return fail("bad probability \"" + val + "\" in \"" + rule_str +
                        "\" (need 0..1)");
          }
          r.p = p;
        } else if (key == "ms") {
          long ms = 0;
          if (!parse_int(val, &ms) || ms < 0 || ms > 60000) {
            return fail("bad delay \"" + val + "\" in \"" + rule_str +
                        "\" (need 0..60000 ms)");
          }
          r.delay_ms = static_cast<int>(ms);
          if (!have_action) {
            r.action = Rule::kDelay;  // ms= implies delay unless stated
            have_action = true;
          }
        } else if (key == "n") {
          long n = 0;
          if (!parse_int(val, &n) || n < 0) {
            return fail("bad count \"" + val + "\" in \"" + rule_str + "\"");
          }
          r.first_n = n;
        } else {
          return fail("unknown param \"" + key + "\" in \"" + rule_str +
                      "\" (accepted: p, ms, n)");
        }
      } else if (tok == "throw" || tok == "delay") {
        if (have_action) {
          return fail("two actions in rule \"" + rule_str + "\"");
        }
        r.action = tok == "throw" ? Rule::kThrow : Rule::kDelay;
        have_action = true;
        if (first_token) r.site = "*";  // action-first rule: every site
      } else {
        if (!first_token) {
          return fail("unexpected token \"" + tok + "\" in \"" + rule_str +
                      "\" (site must come first)");
        }
        r.site = tok;
      }
      first_token = false;
      if (colon == std::string::npos) break;
    }
    if (r.site.empty()) {
      return fail("rule \"" + rule_str + "\" names no site");
    }
    rules.push_back(std::move(r));
  }
  return rules;
}

bool enabled() {
  // First call pays the env parse; afterwards the off path is one relaxed
  // load. call_once keeps concurrent first callers safe.
  std::call_once(g_env_once, init_from_env);
  return g_enabled.load(std::memory_order_relaxed);
}

void point(const char* site) {
  Config* cfg = g_config.load(std::memory_order_acquire);
  if (cfg == nullptr) return;
  SiteState& st = cfg->site(site);
  const std::int64_t idx = st.evals.fetch_add(1, std::memory_order_relaxed);
  for (const Rule& r : cfg->rules) {
    if (r.site != "*" && r.site != site) continue;
    if (r.first_n >= 0 && idx >= r.first_n) continue;
    if (r.p < 1.0) {
      const std::uint64_t h = mix(cfg->seed ^ fnv1a(r.site) ^ fnv1a(site) ^
                                  static_cast<std::uint64_t>(idx));
      const double u =
          static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
      if (u >= r.p) continue;
    }
    st.fired.fetch_add(1, std::memory_order_relaxed);
    obs::counter(std::string("fault.injected.") + site).add();
    if (r.action == Rule::kDelay) {
      static obs::Counter& delays = obs::counter("fault.delays");
      delays.add();
      std::this_thread::sleep_for(std::chrono::milliseconds(r.delay_ms));
      continue;  // a delay rule does not stop later rules from firing
    }
    st.thrown.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& throws = obs::counter("fault.throws");
    throws.add();
    throw FaultInjectedError(std::string("injected fault at ") + site +
                             " (evaluation #" + std::to_string(idx) + ")");
  }
}

bool configure(const std::string& spec, std::uint64_t seed) {
  std::string err;
  std::vector<Rule> rules = parse_spec(spec, &err);
  if (rules.empty() && !spec.empty()) {
    SAUFNO_WARN << "fault spec rejected: " << err;
    return false;
  }
  Config* cfg = new Config();  // immortal; see g_config note
  cfg->rules = std::move(rules);
  cfg->seed = seed;
  {
    std::lock_guard<std::mutex> lk(g_retired_m);
    retired().push_back(cfg);
  }
  install(cfg->rules.empty() ? nullptr : cfg);
  return true;
}

void clear() { install(nullptr); }

namespace {

/// `site`'s state in the active config, or nullptr. Configs are immortal
/// and never drop a site, so the pointer outlives the lock.
const SiteState* find_site(const std::string& site) {
  Config* cfg = g_config.load(std::memory_order_acquire);
  if (cfg == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(cfg->m);
  auto it = cfg->sites.find(site);
  return it == cfg->sites.end() ? nullptr : it->second.get();
}

}  // namespace

std::int64_t injected_count(const std::string& site) {
  const SiteState* st = find_site(site);
  return st == nullptr ? 0 : st->fired.load(std::memory_order_relaxed);
}

std::int64_t injected_throw_count(const std::string& site) {
  const SiteState* st = find_site(site);
  return st == nullptr ? 0 : st->thrown.load(std::memory_order_relaxed);
}

}  // namespace fault
}  // namespace saufno
