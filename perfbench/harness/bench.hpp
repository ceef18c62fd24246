// Shared pieces of the benchmark harness: the span recorder for traced
// runs, the per-point outcome records the end-to-end metrics are computed
// from, the co-simulation check, and the workload interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/explore.hpp"
#include "core/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Tracing ----------------------------------------------------------------

/// One call into a layer, recorded from the harness side of the boundary.
struct Span {
  const char* layer = "";
  const char* name = "";
  double start = 0;  ///< seconds since the tracer's epoch
  double end = 0;
  int parent = -1;
  std::int64_t request = -1;  ///< point or job id; inherited from the parent
};

/// In-memory span store. Off by default: a disabled tracer records nothing
/// and Scope costs one branch.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int open(const char* layer, const char* name, std::int64_t request);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span, in open order.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(const char* layer, const char* name, std::int64_t request = -1)
      : id_(tracer().enabled() ? tracer().open(layer, name, request) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---- Per-layer counts ---------------------------------------------------------

/// Counts and times the harness reads off results at layer boundaries.
/// Only filled while tracing is on, so they describe the traced run.
struct LayerCounts {
  std::map<std::string, double> values;
  void add(const std::string& name, double v) { values[name] += v; }
  double get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

LayerCounts& counts();

// ---- Outcomes ------------------------------------------------------------------

enum class Outcome {
  kFeasible,   ///< scheduled, RTL built, estimated
  kVerdict,    ///< structured [stage/code] failure that is an answer
  kUndecided,  ///< budget, deadline or cancellation: no answer
  kError,      ///< unstructured internal: failure, exception or mismatch
};

/// Classifies a failure string ("[stage/code] message" or "internal: ...").
Outcome classify_failure(const std::string& failure);

/// The "[stage/code]" prefix of a failure, or the whole string when absent.
std::string failure_code(const std::string& failure);

/// "[stage/code] message" for a failed FlowResult (the last error
/// diagnostic is the one that stopped the run, as core::run_point does).
std::string describe_failure(const hls::core::FlowResult& r);

/// One finished point: a flow run, an explore configuration or a serve
/// result line.
struct Point {
  std::int64_t request = 0;
  Outcome outcome = Outcome::kError;
  std::string code;  ///< failure code; empty when feasible
  double area = 0;
  int ops = 0;  ///< region ops of the original (pre-compile) design
  double delay_ns = 0;
  int ii = 0;
  int passes = 0;
  /// A resubmitted serve job's point: it counts in throughput and latency,
  /// and is checked against its original, but the quality metrics count
  /// each distinct configuration once.
  bool repeat = false;
};

/// Canonical text of a point for the output digest.
std::string digest_text(const Point& p);

std::uint64_t fnv1a(const std::string& text, std::uint64_t h = 1469598103934665603ULL);

/// The result of one timed phase.
struct Phase {
  std::vector<Point> points;
  /// One latency per point (fig9, sweep) or per job (serve), in seconds.
  std::vector<double> latencies;
  double elapsed_s = 0;
  /// Completed work units: suite passes, sweep rounds or serve documents.
  int units = 0;
  /// Throughput of consecutive slices of the phase (suite passes, sweep
  /// rounds, serve document chunks), in points per second; points_per_s is
  /// their median, which a short stall on a shared machine cannot move.
  std::vector<double> slice_rates;
  /// Digest of the first unit's outputs; equal for equal seeds.
  std::uint64_t digest = 0;
  std::string digest_scope;
  /// Peak RSS (MiB) when the phase ended.
  double peak_rss_mb = 0;
};

/// Problems found by the output checks. Every problem fails the run.
struct Checks {
  std::int64_t cosim_points = 0;
  std::int64_t rerun_points = 0;
  std::vector<std::string> problems;
  void fail(std::string message) { problems.push_back(std::move(message)); }
};

/// Co-simulates a successful flow result: rtl::simulate on its machine
/// against ir::interpret on `original` (the design before the optimizer
/// ran), on seeded input vectors. Returns false with `why` on a mismatch.
bool cosimulate(const hls::ir::Module& original, const hls::core::FlowResult& r,
                std::uint64_t seed, std::string* why);

/// A design compiled into a FlowSession, with the original module kept as
/// the co-simulation reference.
struct Design {
  hls::ir::Module original;  ///< the design before the optimizer ran
  int ops_in = 0;            ///< region ops before compile
  int ops_out = 0;           ///< region ops after compile
  std::unique_ptr<hls::core::FlowSession> session;
};

/// Compiles `w` (the FlowSession construction is the opt layer's span) and
/// tallies opt.ops_in / opt.ops_out when tracing is on.
Design compile_design(hls::workloads::Workload w);

/// FlowOptions for one explore configuration, as core::run_point builds
/// them (Verilog off).
hls::core::FlowOptions flow_options(const hls::core::ExploreConfig& cfg);

/// Runs the four stages of one flow run (FlowSession::run, stage by stage),
/// each as a span, and tallies the scheduler's counts when tracing is on.
/// `session_ops` is the compiled region's op count. Exceptions propagate.
hls::core::FlowResult run_stages(const hls::core::FlowSession& session,
                                 const hls::core::FlowOptions& options,
                                 int session_ops);

/// Fills a Point from a finished flow result.
Point point_from_result(const hls::core::FlowResult& r, int ops);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// `slots` level indices in [0, levels), each level used floor or ceil of
/// slots/levels times, in seeded random order: stratified sampling, so the
/// mix of every factor is the same in every run and only the pairing of
/// factors varies with the seed.
std::vector<int> balanced_levels(int slots, int levels, std::mt19937_64& rng);

// ---- Workloads -------------------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  /// Slowdown used by the sensitivity self-test; empty = none.
  std::string variant;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Number of set-ups per run; setup_s is their median.
  virtual int setup_repeats() const = 0;
  /// One set-up. Returns the seconds that count as set-up time.
  virtual double setup() = 0;
  /// The percentile latency_tail_s reports, the same on every machine.
  virtual double tail_percentile() const = 0;
  /// Units a full run does at least, so that at least ten latencies lie
  /// beyond tail_percentile() however slow the program is.
  virtual int min_units() const = 0;
  /// Runs whole units until `seconds` have passed and min_units() are
  /// done, or until `max_units` are done (0 = no unit cap). Each call starts
  /// from the same state and replays the same seeded inputs, so a capped
  /// second call repeats the first.
  virtual Phase run(double seconds, int max_units) = 0;
  /// Output checks on the most recent phase, outside the timing.
  virtual void check(const Phase& phase, Checks& checks) = 0;
  /// Workload-specific per-layer metrics of the most recent phase.
  virtual void layer_metrics(std::map<std::string, double>& /*out*/) const {}

 protected:
  /// The end-of-unit test of run().
  bool finished(int units, double elapsed, double seconds, int max_units) const {
    if (max_units > 0) return units >= max_units;
    return elapsed >= seconds && units >= min_units();
  }
};

std::unique_ptr<Workload> make_fig9(const Options& options);
std::unique_ptr<Workload> make_sweep(const Options& options);
std::unique_ptr<Workload> make_serve(const Options& options);

}  // namespace perfbench
