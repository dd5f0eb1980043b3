#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace saufno {
namespace fault {

/// Deterministic fault-injection framework (chaos harness).
///
/// Production code marks injection points with SAUFNO_FAULT_POINT("site");
/// with no spec configured the cost is one relaxed atomic load + branch.
/// A spec — from the SAUFNO_FAULT environment variable or configure() —
/// turns selected points into seeded probabilistic faults:
///
///   SAUFNO_FAULT=alloc:p=0.01,forward:throw:p=0.001,delay:ms=50:p=0.05
///
/// Grammar: comma-separated rules; each rule is colon-separated tokens
///   [site][:action][:param=value]...
/// where `site` names an injection point ("alloc", "gemm", "fft", "plan",
/// "forward", or "*" for all; a rule that STARTS with an action token
/// applies to every site), `action` is `throw` (default; raises
/// FaultInjectedError at the point) or `delay` (sleeps), and params are
///   p=<0..1>   fire probability per evaluation (default 1)
///   ms=<int>   delay duration for `delay` rules (default 1)
///   n=<int>    fire only on the first n evaluations of the rule's site
///              (deterministic "fail exactly the first k attempts" harness)
///
/// Decisions are a pure function of (seed, site, per-site evaluation
/// counter), so a fixed SAUFNO_FAULT_SEED replays the same fault sequence
/// per site regardless of wall clock; thread interleaving only changes
/// which thread draws which index. Injected faults are counted per site in
/// obs ("fault.injected.<site>", plus "fault.delays"/"fault.throws").
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& msg)
      : std::runtime_error(msg) {}
};

struct Rule {
  std::string site;  // "*" matches every site
  enum Action { kThrow, kDelay } action = kThrow;
  double p = 1.0;    // fire probability per evaluation
  int delay_ms = 1;  // for kDelay
  int64_t first_n = -1;  // >=0: fire only on evaluations [0, first_n)
};

/// Parse a spec string. On success returns the rules; on failure returns an
/// empty vector and sets *error (when non-null) to a diagnostic.
std::vector<Rule> parse_spec(const std::string& spec, std::string* error);

/// True when any rules are active. Inlined relaxed load — the only cost
/// production code pays when injection is off.
bool enabled();

/// Evaluate the injection point `site` against the active rules. May throw
/// FaultInjectedError or sleep; returns normally otherwise. Call through
/// SAUFNO_FAULT_POINT so the disabled path stays a load+branch.
void point(const char* site);

/// Install `spec` programmatically (test hook; wins over SAUFNO_FAULT until
/// clear()). Returns false and installs nothing when the spec is malformed.
/// Resets per-site evaluation counters so runs are reproducible.
bool configure(const std::string& spec, std::uint64_t seed);

/// Remove all active rules (environment spec included).
void clear();

/// Total faults fired (throws + delays) at `site` since the last
/// configure()/clear().
std::int64_t injected_count(const std::string& site);

/// Throws alone fired at `site` since the last configure()/clear(): unlike
/// injected_count, a wildcard delay rule cannot make it nonzero.
std::int64_t injected_throw_count(const std::string& site);

#define SAUFNO_FAULT_POINT(site)                     \
  do {                                               \
    if (::saufno::fault::enabled()) ::saufno::fault::point(site); \
  } while (0)

}  // namespace fault
}  // namespace saufno
