#include "runtime/inference_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fault.h"
#include "common/logging.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "runtime/pipeline.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"

namespace saufno {
namespace runtime {
namespace {

/// Engine telemetry, aggregated across every InferenceEngine in the
/// process (each engine additionally keeps its own latency histogram for
/// per-instance stats()).
struct EngineMetrics {
  obs::Counter& requests = obs::counter("engine.requests");
  obs::Counter& batches = obs::counter("engine.batches");
  obs::Counter& batch_errors = obs::counter("engine.batch_errors");
  obs::Counter& rejected = obs::counter("engine.rejected");
  obs::Counter& shed_bytes = obs::counter("engine.shed_bytes");
  obs::Counter& deadline_expired = obs::counter("engine.deadline_expired");
  obs::Counter& cancelled = obs::counter("engine.cancelled");
  obs::Counter& isolation_splits = obs::counter("engine.isolation_splits");
  obs::Counter& isolated_failures = obs::counter("engine.isolated_failures");
  obs::Counter& nonfinite_outputs = obs::counter("engine.nonfinite_outputs");
  obs::Counter& watchdog_trips = obs::counter("engine.watchdog_trips");
  obs::Counter& drains = obs::counter("engine.drains");
  obs::Histogram& latency_ms = obs::histogram("engine.latency_ms");
  obs::Histogram& forward_ms = obs::histogram("engine.forward_ms");
  obs::Histogram& batch_size = obs::histogram("engine.batch_size");
  obs::Histogram& retry_after_ms = obs::histogram("engine.retry_after_ms");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

/// Index of the first NaN/Inf in p[0, n), or -1 when all values are finite.
int64_t find_nonfinite(const float* p, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) return i;
  }
  return -1;
}

std::uint64_t double_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double bits_double(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<nn::Module> model, Config cfg)
    : InferenceEngine(std::move(model), std::nullopt, cfg) {}

InferenceEngine::InferenceEngine(std::shared_ptr<nn::Module> model,
                                 std::optional<data::Normalizer> norm,
                                 Config cfg)
    : model_(std::move(model)), norm_(std::move(norm)), cfg_(cfg) {
  SAUFNO_CHECK(model_ != nullptr, "InferenceEngine needs a model");
  SAUFNO_CHECK(cfg_.max_batch >= 1, "max_batch must be >= 1");
  SAUFNO_CHECK(cfg_.max_wait_us >= 0, "max_wait_us must be >= 0");
  SAUFNO_CHECK(cfg_.plan_mode >= -1 && cfg_.plan_mode <= 1,
               "plan_mode must be -1 (env), 0 (off) or 1 (on)");
  SAUFNO_CHECK(cfg_.queue_capacity >= 0, "queue_capacity must be >= 0");
  SAUFNO_CHECK(cfg_.watchdog_timeout_ms >= 0,
               "watchdog_timeout_ms must be >= 0 (0 disables)");
  model_->set_training(false);
  const plan::Mode mode = cfg_.plan_mode < 0
                              ? plan::mode_from_env()
                              : static_cast<plan::Mode>(cfg_.plan_mode);
  plan_ = std::make_unique<plan::PlanRunner>(model_, mode);
  queue_.set_capacity(static_cast<std::size_t>(cfg_.queue_capacity));
  batch_ms_ewma_bits_.store(double_bits(1.0), std::memory_order_relaxed);
  SAUFNO_INFO << "engine: plan mode " << plan::mode_name(mode)
              << (cfg_.plan_mode < 0 ? " (SAUFNO_PLAN)" : " (config)")
              << ", queue capacity "
              << (cfg_.queue_capacity > 0 ? std::to_string(cfg_.queue_capacity)
                                          : std::string("unbounded"))
              << ", watchdog "
              << (cfg_.watchdog_timeout_ms > 0
                      ? std::to_string(cfg_.watchdog_timeout_ms) + " ms"
                      : std::string("off"));
  batcher_ = std::thread([this] { batcher_loop(); });
  if (cfg_.watchdog_timeout_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

std::unique_ptr<InferenceEngine> InferenceEngine::from_zoo(
    const std::string& model_name, int64_t in_channels, int64_t out_channels,
    std::uint64_t seed, const std::string& checkpoint, Config cfg) {
  auto model =
      train::make_model(model_name, in_channels, out_channels, seed);
  std::optional<data::Normalizer> norm;
  if (!checkpoint.empty()) {
    nn::CheckpointMeta meta = nn::load_checkpoint(*model, checkpoint);
    if (meta.has_normalizer) norm = meta.normalizer;
  }
  if (cfg.expected_in_channels == 0) cfg.expected_in_channels = in_channels;
  return std::make_unique<InferenceEngine>(std::move(model), std::move(norm),
                                           cfg);
}

std::unique_ptr<InferenceEngine> InferenceEngine::from_checkpoint(
    const std::string& checkpoint, Config cfg) {
  Pipeline pipe = build_pipeline(checkpoint);
  std::optional<data::Normalizer> norm;
  if (pipe.meta.has_normalizer) norm = pipe.meta.normalizer;
  if (cfg.expected_in_channels == 0) {
    cfg.expected_in_channels = pipe.meta.in_channels;
  }
  return std::make_unique<InferenceEngine>(std::move(pipe.model),
                                           std::move(norm), cfg);
}

InferenceEngine::~InferenceEngine() { stop(); }

const data::Normalizer& InferenceEngine::normalizer() const {
  SAUFNO_CHECK(norm_.has_value(),
               "engine has no normalizer (weights-only checkpoint?)");
  return *norm_;
}

std::future<Tensor> InferenceEngine::submit(Tensor power_map) {
  return submit(std::move(power_map), SubmitOptions{});
}

std::future<Tensor> InferenceEngine::submit(Tensor power_map,
                                            SubmitOptions opts) {
  if (stopped_.load(std::memory_order_acquire)) {
    throw ShutdownError("submit() refused: engine is stopped");
  }
  if (draining_.load(std::memory_order_acquire)) {
    throw ShutdownError("submit() refused: engine is draining");
  }
  const int64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  auto who = [&] {
    return " [request seq=" + std::to_string(seq) + " shape=" +
           shape_str(power_map.shape()) + "]";
  };
  if (power_map.dim() != 3) {
    throw RequestError("submit expects a [C, H, W] field, got " +
                       shape_str(power_map.shape()) + who());
  }
  const int64_t in_ch = power_map.size(0);
  if (cfg_.expected_in_channels > 0) {
    // Exact check: a wider-than-expected input used to slip past the old
    // normalizer lower bound and die inside model_->forward with an opaque
    // shape error.
    if (in_ch != cfg_.expected_in_channels) {
      throw RequestError("submit: input has " + std::to_string(in_ch) +
                         " channels but the model expects exactly " +
                         std::to_string(cfg_.expected_in_channels) + who());
    }
  } else if (norm_ && in_ch < norm_->n_power_channels()) {
    throw RequestError(
        "submit: input has " + std::to_string(in_ch) +
        " channels but the checkpoint's normalizer scales the first " +
        std::to_string(norm_->n_power_channels()) + " power channels" + who());
  }
  if (cfg_.validate_finite) {
    // Reject poison at the door: a NaN input would otherwise contaminate
    // only its own rows (every kernel is per-sample independent), but the
    // caller deserves the diagnosis at submit, not a batch-time autopsy.
    const int64_t bad = find_nonfinite(power_map.data(),
                                       numel_of(power_map.shape()));
    if (bad >= 0) {
      throw RequestError("submit: non-finite input value at flat index " +
                         std::to_string(bad) + who());
    }
  }

  InferenceRequest req;
  req.input = std::move(power_map);
  req.result = std::make_shared<ResultSlot>();
  req.enqueued_at = std::chrono::steady_clock::now();
  req.opts = std::move(opts);
  req.seq = seq;
  const int64_t bytes =
      numel_of(req.input.shape()) * static_cast<int64_t>(sizeof(float));
  std::future<Tensor> fut = req.result->get_future();
  // push() refuses after shutdown and over capacity, closing both the
  // submit/stop race and unbounded backlog growth: either the batcher will
  // serve this request, or the caller gets a typed error here.
  const RequestQueue::PushResult pr = queue_.push(std::move(req));
  switch (pr.status) {
    case RequestQueue::PushStatus::kAccepted:
      return fut;
    case RequestQueue::PushStatus::kShutdown:
      throw ShutdownError("submit() raced with stop()");
    case RequestQueue::PushStatus::kQueueFull: {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      EngineMetrics& em = engine_metrics();
      em.rejected.add();
      em.shed_bytes.add(bytes);
      const double retry_ms = estimated_retry_after_ms();
      em.retry_after_ms.record(retry_ms);
      throw OverloadedError(
          "engine overloaded: queue at capacity " +
              std::to_string(cfg_.queue_capacity) +
              " (backlog " + std::to_string(pr.depth) +
              "); retry after ~" + std::to_string(retry_ms) + " ms" + who(),
          retry_ms);
    }
  }
  throw EngineError("unreachable push status");  // keeps -Wreturn-type quiet
}

double InferenceEngine::estimated_retry_after_ms() const {
  // Backlog in batches ahead of a would-be arrival, times the EWMA of
  // recent per-batch serve time. Deliberately simple: the hint only has to
  // be the right order of magnitude for a client backoff loop.
  const double ewma = std::max(
      bits_double(batch_ms_ewma_bits_.load(std::memory_order_relaxed)), 0.01);
  const double depth = static_cast<double>(queue_.size());
  const double batches_ahead =
      std::floor(depth / static_cast<double>(cfg_.max_batch)) + 1.0;
  return batches_ahead * ewma;
}

void InferenceEngine::stop() {
  if (stopped_.exchange(true)) return;
  queue_.shutdown();
  if (batcher_.joinable()) batcher_.join();
  {
    // Empty critical section: pairs the notify with the watchdog's
    // predicate check so the wakeup cannot be lost.
    std::lock_guard<std::mutex> lk(inflight_m_);
  }
  drain_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::size_t InferenceEngine::drain(std::chrono::milliseconds timeout) {
  draining_.store(true, std::memory_order_release);
  engine_metrics().drains.add();
  {
    // Wait for the already-admitted work to finish: queue empty and no
    // batch in flight (the batcher notifies after every batch).
    std::unique_lock<std::mutex> lk(inflight_m_);
    drain_cv_.wait_for(lk, timeout, [this] {
      return batcher_done_.load(std::memory_order_acquire) ||
             (busy_since_ns_.load(std::memory_order_acquire) == 0 &&
              queue_.size() == 0);
    });
  }
  // Whatever is still queued missed the timeout: resolve those stragglers
  // with ShutdownError so no client is left waiting on a dead engine.
  // Pre-count the backlog before failing it (count-before-resolve rule:
  // a client that observes the error must observe it in stats() too),
  // then reconcile against what fail_pending actually completed — the
  // batcher may still pop a few for service in between.
  const std::size_t backlog = queue_.size();
  if (backlog > 0) {
    std::lock_guard<std::mutex> lk(stats_m_);
    requests_failed_ += static_cast<int64_t>(backlog);
  }
  const std::size_t failed = queue_.fail_pending(std::make_exception_ptr(
      ShutdownError("engine drained: request not served within the drain "
                    "timeout")));
  if (failed != backlog) {
    std::lock_guard<std::mutex> lk(stats_m_);
    requests_failed_ += static_cast<int64_t>(failed) -
                        static_cast<int64_t>(backlog);
  }
  stop();
  return failed;
}

void InferenceEngine::batcher_loop() {
  for (;;) {
    std::vector<InferenceRequest> batch;
    {
      // Dequeue covers both idle waiting and the straggler deadline, so a
      // trace shows exactly how much of a slow request was batching wait.
      SAUFNO_TRACE_SPAN("engine.dequeue");
      batch = queue_.pop_batch(static_cast<std::size_t>(cfg_.max_batch),
                               cfg_.max_wait_us);
    }
    if (batch.empty()) break;  // shutdown + drained
    serve_batch(std::move(batch));
  }
  batcher_done_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(inflight_m_);
  }
  drain_cv_.notify_all();
}

void InferenceEngine::serve_batch(std::vector<InferenceRequest> batch) {
  SAUFNO_TRACE_SPAN("engine.batch");
  // Pre-forward reap: deadline/cancel state may have moved since dequeue
  // (the straggler wait alone can be the whole max_wait_us). Doomed
  // requests must not burn forward compute.
  {
    const auto now = std::chrono::steady_clock::now();
    std::size_t keep = 0;
    for (auto& req : batch) {
      if (req.cancelled()) {
        complete_error(req, std::make_exception_ptr(CancelledError(
                                "request cancelled before forward [" +
                                request_desc(req) + "]")));
      } else if (req.expired(now)) {
        complete_error(req, std::make_exception_ptr(DeadlineExceededError(
                                "deadline exceeded before forward [" +
                                request_desc(req) + "]")));
      } else {
        // Guard the self-move: with nothing reaped yet, req IS batch[keep],
        // and a self-move-assignment would empty the tensor.
        if (&batch[keep] != &req) batch[keep] = std::move(req);
        ++keep;
      }
    }
    batch.resize(keep);
  }
  if (batch.empty()) return;

  note_batch_window(batch, 0, batch.size());

  // Publish the in-flight batch to the watchdog before any model code runs:
  // if the forward wedges, the watchdog completes exactly these slots.
  {
    std::lock_guard<std::mutex> lk(inflight_m_);
    inflight_slots_.clear();
    for (const auto& req : batch) inflight_slots_.push_back(req.result);
  }
  busy_since_ns_.store(now_ns(), std::memory_order_release);

  const auto t0 = std::chrono::steady_clock::now();
  execute_range(batch, 0, batch.size(), /*depth=*/0);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // Single writer (this thread); readers only ever load. EWMA alpha 0.2
  // follows load shifts within ~5 batches without jittering the hint.
  const double prev =
      bits_double(batch_ms_ewma_bits_.load(std::memory_order_relaxed));
  batch_ms_ewma_bits_.store(double_bits(0.8 * prev + 0.2 * ms),
                            std::memory_order_relaxed);

  busy_since_ns_.store(0, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(inflight_m_);
    inflight_slots_.clear();
  }
  drain_cv_.notify_all();
}

void InferenceEngine::execute_range(std::vector<InferenceRequest>& batch,
                                    std::size_t lo, std::size_t hi,
                                    int depth) {
  if (lo >= hi) return;
  std::string what;
  bool compile_failed = false;
  try {
    forward_and_deliver(batch, lo, hi);
    return;
  } catch (const plan::CompileError& e) {
    what = e.what();
    compile_failed = true;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
    what = "unknown exception";
  }
  EngineMetrics& em = engine_metrics();
  if (depth == 0) em.batch_errors.add();
  if (hi - lo == 1) {
    // Isolated to one request: fail it, by name, and nobody else.
    em.isolated_failures.add();
    complete_error(batch[lo],
                   std::make_exception_ptr(RequestError(
                       "inference failed: " + what + " [" +
                       request_desc(batch[lo]) + "]")));
    return;
  }
  if (compile_failed || depth > 12) {
    // Fan the failure out — but still name every request it lands on
    // (an anonymous batch-wide error was the old, useless behavior). A
    // plan compile depends only on the shape the whole range shares, so
    // bisecting it would only compile and fail again, 2B - 1 times in all.
    for (std::size_t i = lo; i < hi; ++i) {
      complete_error(batch[i],
                     std::make_exception_ptr(RequestError(
                         "batch forward failed: " + what + " [" +
                         request_desc(batch[i]) + ", in a batch of " +
                         std::to_string(hi - lo) + "]")));
    }
    return;
  }
  // Bisect and retry each half: log2(B) extra forwards in the worst case,
  // and only the culpable request(s) end with the exception.
  em.isolation_splits.add();
  const std::size_t mid = lo + (hi - lo) / 2;
  execute_range(batch, lo, mid, depth + 1);
  execute_range(batch, mid, hi, depth + 1);
}

namespace {

/// Number of row partitions for one batched forward: the largest divisor of
/// the batch that fits the pool lanes with at least 2 rows per partition.
/// A divisor, so every partition runs the SAME plan shape (one extra
/// compile, ever), and tiny batches never shatter into per-row forwards.
int64_t resolve_partitions(int64_t padded) {
  int64_t p = std::min<int64_t>(ThreadPool::instance().num_threads(),
                                padded / 2);
  p = std::max<int64_t>(1, p);
  while (padded % p != 0) --p;
  return p;
}

}  // namespace

void InferenceEngine::forward_and_deliver(std::vector<InferenceRequest>& batch,
                                          std::size_t lo, std::size_t hi) {
  const int64_t bsz = static_cast<int64_t>(hi - lo);
  const Shape& in_shape = batch[lo].input.shape();  // [C, H, W]
  const int64_t sample = numel_of(in_shape);
  const int64_t padded =
      cfg_.pad_to_full_batch ? std::max<int64_t>(cfg_.max_batch, bsz) : bsz;

  // Padding rows stay zero (Tensor's storage is zero-initialized).
  Tensor stacked({padded, in_shape[0], in_shape[1], in_shape[2]});
  {
    SAUFNO_TRACE_SPAN("engine.assemble");
    for (int64_t i = 0; i < bsz; ++i) {
      std::memcpy(stacked.data() + i * sample,
                  batch[lo + static_cast<std::size_t>(i)].input.data(),
                  sizeof(float) * static_cast<std::size_t>(sample));
    }
  }

  SAUFNO_FAULT_POINT("forward");

  // Raw-in/kelvin-out: encode exactly like Trainer::predict does. Both
  // transforms are per-element affine maps, so encoding the stacked batch
  // is bit-identical to encoding each sample alone. Padding rows do NOT
  // stay zero in general — encode_inputs maps them to whatever the
  // encoder sends 0 to — and their outputs are garbage; real rows are
  // untouched because every kernel in this library is per-sample
  // independent (pinned by the padded-vs-unpadded bitwise test).
  if (norm_) {
    SAUFNO_TRACE_SPAN("engine.normalize");
    stacked = norm_->encode_inputs(stacked);
  }
  // The runner picks the path: compiled plan (flat instruction stream,
  // zero per-op allocation) or define-by-run interpreter under
  // its own NoGradGuard. Either way the result is bit-identical and no
  // autograd tape survives the forward.
  //
  // With batch partitioning the batch is split into contiguous row ranges,
  // each forwarded alone as one chunk of a parallel_for (ops inside a
  // partition still decompose). Every kernel is per-sample independent
  // (pinned by the padded-vs-unpadded and partitioned-vs-not bitwise
  // tests), so forwarding rows [r0, r1) alone and concatenating in row
  // order is bit-identical to one whole-batch forward.
  const int64_t parts = resolve_partitions(padded);
  const int64_t rows = padded / parts;  // parts divides padded (resolver)
  const Shape part_shape{rows, in_shape[0], in_shape[1], in_shape[2]};
  // A cold plan compile is a traced forward of its own. Compile the shape
  // the partitions share up front and count its completion as progress, so
  // the watchdog times the compile and the forward apart. A hung compile
  // still trips it.
  if (plan_->prepare(part_shape)) {
    busy_since_ns_.store(now_ns(), std::memory_order_release);
  }
  Tensor fwd_out = [&] {
    SAUFNO_TRACE_SPAN("engine.forward");
    const auto t0 = std::chrono::steady_clock::now();
    Tensor v;
    if (parts <= 1) {
      v = plan_->forward(stacked);
    } else {
      std::vector<Tensor> outs(static_cast<std::size_t>(parts));
      parallel_for(0, parts, 1, [&](int64_t pi, int64_t) {
        outs[static_cast<std::size_t>(pi)] = plan_->forward(
            Tensor::wrap_external(stacked.data() + pi * rows * sample,
                                  part_shape));
      });
      const Shape& ps = outs[0].shape();  // [rows, C_out, H, W]
      SAUFNO_CHECK(ps.size() == 4 && ps[0] == rows,
                   "partitioned forward returned unexpected shape " +
                       shape_str(ps));
      const int64_t part_numel = numel_of(ps);
      v = Tensor({padded, ps[1], ps[2], ps[3]});
      for (int64_t pi = 0; pi < parts; ++pi) {
        const Tensor& o = outs[static_cast<std::size_t>(pi)];
        SAUFNO_CHECK(o.shape() == ps,
                     "partitioned forward shape mismatch across partitions");
        std::memcpy(v.data() + pi * part_numel, o.data(),
                    sizeof(float) * static_cast<std::size_t>(part_numel));
      }
    }
    engine_metrics().forward_ms.record(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return v;
  }();
  const Shape& os = fwd_out.shape();  // [padded, C_out, H, W]
  SAUFNO_CHECK(os.size() == 4 && os[0] == padded,
               "model returned unexpected shape " + shape_str(os));
  const int64_t out_sample = os[1] * os[2] * os[3];

  // Output guard: a forward that RETURNED can still carry poison (NaN/Inf
  // from a numeric bug or an injected fault). Fail only the poisoned rows,
  // never the engine. The plan is memcmp-equal to the interpreter, so no
  // other path could serve them.
  std::vector<char> dead(static_cast<std::size_t>(bsz), 0);
  for (int64_t i = 0; i < bsz; ++i) {
    if (find_nonfinite(fwd_out.data() + i * out_sample, out_sample) < 0) {
      continue;
    }
    InferenceRequest& req = batch[lo + static_cast<std::size_t>(i)];
    engine_metrics().nonfinite_outputs.add();
    dead[static_cast<std::size_t>(i)] = 1;
    complete_error(req, std::make_exception_ptr(RequestError(
                            "non-finite value in model output [" +
                            request_desc(req) + "]")));
  }

  Tensor decoded;
  {
    SAUFNO_TRACE_SPAN("engine.denormalize");
    decoded = norm_ ? norm_->decode_targets(fwd_out) : fwd_out;
  }
  const Shape result_shape{os[1], os[2], os[3]};
  SAUFNO_TRACE_SPAN("engine.scatter");
  for (int64_t i = 0; i < bsz; ++i) {
    if (dead[static_cast<std::size_t>(i)]) continue;
    Tensor result(result_shape);
    std::memcpy(result.data(), decoded.data() + i * out_sample,
                sizeof(float) * static_cast<std::size_t>(out_sample));
    complete_value(batch[lo + static_cast<std::size_t>(i)], std::move(result));
  }
}

void InferenceEngine::complete_value(InferenceRequest& req, Tensor result) {
  const auto now = std::chrono::steady_clock::now();
  // Last line of the deadline contract: a future never resolves with a
  // value after its deadline, even if the result is sitting right here.
  if (req.cancelled()) {
    complete_error(req, std::make_exception_ptr(CancelledError(
                            "request cancelled before delivery [" +
                            request_desc(req) + "]")));
    return;
  }
  if (req.expired(now)) {
    complete_error(req, std::make_exception_ptr(DeadlineExceededError(
                            "deadline exceeded before delivery [" +
                            request_desc(req) + "]")));
    return;
  }
  // Record stats BEFORE fulfilling the promise so a caller that observes
  // its future ready also observes this request in stats().
  const double ms =
      std::chrono::duration<double, std::milli>(now - req.enqueued_at).count();
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    requests_done_ += 1;
    window_end_ = now;
  }
  EngineMetrics& em = engine_metrics();
  em.requests.add();
  latency_hist_.record(ms);
  em.latency_ms.record(ms);
  if (!req.result->try_value(std::move(result))) {
    // The watchdog beat us to this slot and counted it as failed; the
    // client saw an error, so undo the optimistic value count.
    std::lock_guard<std::mutex> lk(stats_m_);
    requests_done_ -= 1;
  }
}

void InferenceEngine::complete_error(InferenceRequest& req,
                                     std::exception_ptr e) {
  // Classify for the typed counters; error completions are rare enough
  // that the rethrow costs nothing that matters.
  enum Kind { kFailed, kExpired, kCancelled };
  Kind kind = kFailed;
  try {
    std::rethrow_exception(e);
  } catch (const DeadlineExceededError&) {
    kind = kExpired;
  } catch (const CancelledError&) {
    kind = kCancelled;
  } catch (...) {
  }
  EngineMetrics& em = engine_metrics();
  const auto now = std::chrono::steady_clock::now();
  // Count BEFORE resolving the promise (same rule as complete_value): a
  // caller that observes its future ready must also observe this request
  // in stats(). Undone below if another resolver beat us to the slot.
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    window_end_ = now;
    if (kind == kExpired) {
      requests_expired_ += 1;
    } else if (kind == kCancelled) {
      requests_cancelled_ += 1;
    } else {
      requests_failed_ += 1;
    }
  }
  if (kind == kExpired) em.deadline_expired.add();
  if (kind == kCancelled) em.cancelled.add();
  if (!req.result->try_error(e)) {
    // Queue/watchdog already resolved this slot and counted it; undo.
    if (kind == kExpired) em.deadline_expired.add(-1);
    if (kind == kCancelled) em.cancelled.add(-1);
    std::lock_guard<std::mutex> lk(stats_m_);
    if (kind == kExpired) {
      requests_expired_ -= 1;
    } else if (kind == kCancelled) {
      requests_cancelled_ -= 1;
    } else {
      requests_failed_ -= 1;
    }
  }
}

void InferenceEngine::note_batch_window(
    const std::vector<InferenceRequest>& batch, std::size_t lo,
    std::size_t hi) {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    batches_ += 1;
    for (std::size_t i = lo; i < hi; ++i) {
      if (!window_open_ || batch[i].enqueued_at < window_start_) {
        window_start_ = batch[i].enqueued_at;
        window_open_ = true;
      }
    }
    window_end_ = now;
  }
  EngineMetrics& em = engine_metrics();
  em.batches.add();
  em.batch_size.record(static_cast<double>(hi - lo));
}

void InferenceEngine::watchdog_loop() {
  const int64_t timeout_ns = cfg_.watchdog_timeout_ms * 1000000;
  // Poll a few times per timeout window; the cv wait doubles as the prompt
  // exit path (stop()/batcher exit notify under inflight_m_).
  const auto poll = std::chrono::milliseconds(
      std::max<int64_t>(1, std::min<int64_t>(cfg_.watchdog_timeout_ms / 4,
                                             250)));
  std::unique_lock<std::mutex> lk(inflight_m_);
  for (;;) {
    if (stopped_.load(std::memory_order_acquire) ||
        batcher_done_.load(std::memory_order_acquire)) {
      return;
    }
    drain_cv_.wait_for(lk, poll);
    if (stopped_.load(std::memory_order_acquire) ||
        batcher_done_.load(std::memory_order_acquire)) {
      return;
    }
    const int64_t busy = busy_since_ns_.load(std::memory_order_acquire);
    if (busy == 0 || now_ns() - busy < timeout_ns) continue;

    // The batcher has been inside ONE batch longer than any legitimate
    // forward takes. Hanging clients forever is the worst failure mode a
    // serving process has — fail their futures instead, close admissions,
    // and leave the wedged thread to whatever it is stuck on.
    engine_metrics().watchdog_trips.add();
    draining_.store(true, std::memory_order_release);
    std::vector<std::shared_ptr<ResultSlot>> slots = inflight_slots_;
    lk.unlock();
    const auto err = std::make_exception_ptr(EngineError(
        "watchdog: batcher made no progress for " +
        std::to_string(cfg_.watchdog_timeout_ms) +
        " ms; failing in-flight and queued requests (engine is now closed "
        "to new submissions)"));
    // Count each request as failed BEFORE resolving its future so a client
    // that observes the error also observes it in stats(); roll back the
    // ones another resolver won.
    std::size_t failed = 0;
    for (const auto& s : slots) {
      {
        std::lock_guard<std::mutex> slk(stats_m_);
        requests_failed_ += 1;
      }
      if (s->try_error(err)) {
        ++failed;
      } else {
        std::lock_guard<std::mutex> slk(stats_m_);
        requests_failed_ -= 1;
      }
    }
    // Admissions are closed (draining_) and the batcher is wedged, so the
    // backlog can only be resolved by fail_pending below: pre-count it,
    // then reconcile against what fail_pending actually completed.
    const std::size_t backlog = queue_.size();
    {
      std::lock_guard<std::mutex> slk(stats_m_);
      requests_failed_ += static_cast<int64_t>(backlog);
    }
    const std::size_t failed_queued = queue_.fail_pending(err);
    if (failed_queued != backlog) {
      std::lock_guard<std::mutex> slk(stats_m_);
      requests_failed_ += static_cast<int64_t>(failed_queued) -
                          static_cast<int64_t>(backlog);
    }
    failed += failed_queued;
    SAUFNO_WARN << "engine watchdog tripped after "
                << cfg_.watchdog_timeout_ms << " ms; failed " << failed
                << " pending futures";
    return;  // terminal: one trip closes the engine to new work
  }
}

InferenceStats InferenceEngine::stats() const {
  InferenceStats s;
  {
    // The lock covers only the scalar counters + busy window; percentiles
    // come from the histogram outside it (the seed copied AND fully sorted
    // an 8192-entry ring under this mutex on every call, stalling the
    // batcher's completion path whenever anyone polled stats).
    std::lock_guard<std::mutex> lk(stats_m_);
    s.requests = requests_done_;
    s.failed = requests_failed_;
    s.expired = requests_expired_;
    s.cancelled = requests_cancelled_;
    s.batches = batches_;
    // Busy window only — an engine idle before its first request (or after
    // its last batch) reports its actual serving rate, not a lifetime
    // average diluted by idle time.
    s.wall_seconds =
        window_open_
            ? std::chrono::duration<double>(window_end_ - window_start_).count()
            : 0.0;
  }
  s.rejected = rejected_.load(std::memory_order_relaxed);
  // Dequeue-time reaps happen inside the queue; fold them in so expired/
  // cancelled mean "futures resolved with that error", wherever resolved.
  s.expired += queue_.expired_count();
  s.cancelled += queue_.cancelled_count();
  s.avg_batch_size =
      s.batches > 0 ? static_cast<double>(s.requests) / s.batches : 0.0;
  s.throughput_rps =
      s.wall_seconds > 0.0 ? static_cast<double>(s.requests) / s.wall_seconds
                           : 0.0;
  s.latency_p50_ms = latency_hist_.quantile(0.50);
  s.latency_p95_ms = latency_hist_.quantile(0.95);
  s.latency_p99_ms = latency_hist_.quantile(0.99);
  s.latency_max_ms = latency_hist_.max();
  return s;
}

}  // namespace runtime
}  // namespace saufno
