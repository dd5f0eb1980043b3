#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

int32_t SpanLog::begin(const char* name, int32_t parent, int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::end(int32_t id) {
  if (id < 0) return;
  const int64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::vector<SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times_ns(spans);
  std::vector<SpanTotals> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].name);
    if (it == index.end()) {
      it = index.emplace(spans[i].name, out.size()).first;
      out.push_back(SpanTotals{spans[i].name, 0, 0.0, 0.0});
    }
    SpanTotals& t = out[it->second];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    t.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

bool write_spans_json(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = self_times_ns(spans);
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"totals\": [");
  const auto totals = totals_by_name(spans);
  for (std::size_t i = 0; i < totals.size(); ++i) {
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"count\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}", i ? "," : "", totals[i].name.c_str(),
                 static_cast<long long>(totals[i].count), totals[i].total_ms,
                 totals[i].self_ms);
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"self_us\": %.3f, \"parent\": %d, "
                 "\"request\": %lld}", i ? "," : "", i, s.name.c_str(),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - t0) * 1e-3,
                 static_cast<double>(self[i]) * 1e-3, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
