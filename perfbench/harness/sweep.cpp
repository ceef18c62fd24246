// sweep: small designs at many configurations. Designs are
// workloads::suite() (13 kernels, the 3 memory-bound ones included) plus 12
// seeded random CDFGs of 60-500 ops. The configurations are a stratified
// draw of 40 per design from the grid latency {4,6,8,12,16,24,32} x II
// {0,1,2,4,min} x tclk 700-3000 ps (100 ps steps) x backend {list, sdc,
// auto}. A round runs each design's draws through one core::explore() call
// (exhaustive mode, one thread); per-point latency comes from the progress
// callback's timestamps. Rounds repeat until the run's time is up.
//
// The designs and the draw come from fixed seeds and --seed orders the
// designs and configurations of every round: a few budget-exhausted crawls
// and min-II solves take most of the time, so a draw that changed with the
// seed would move throughput by more than any bound worth having.
#include <algorithm>
#include <random>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace hls;

constexpr int kRandomDesigns = 12;
constexpr std::uint64_t kDesignSeed = 5000;
constexpr std::uint64_t kDrawSeed = 7;
constexpr int kDrawsPerDesign = 40;
constexpr int kLatencies[] = {4, 6, 8, 12, 16, 24, 32};
constexpr int kIis[] = {0, 1, 2, 4, -1};  // -1 = solve for the minimum II
constexpr sched::BackendKind kBackends[] = {
    sched::BackendKind::kList, sched::BackendKind::kSdc, sched::BackendKind::kAuto};

Point point_from_explore(const core::ExplorePoint& pt, int ops) {
  Point p;
  p.ops = ops;
  p.passes = pt.passes;
  if (pt.feasible) {
    p.outcome = Outcome::kFeasible;
    p.area = pt.area;
    p.delay_ns = pt.delay_ns;
    p.ii = static_cast<int>(pt.delay_ns * 1000.0 / pt.tclk_ps + 0.5);
  } else {
    p.outcome = classify_failure(pt.failure);
    p.code = failure_code(pt.failure);
  }
  return p;
}

/// One staged run of a configuration with explore()'s exception handling.
core::FlowResult run_config(const core::FlowSession& session, const core::ExploreConfig& cfg,
                            bool warm_start, int ops, std::string* internal) {
  try {
    core::FlowOptions options = flow_options(cfg);
    options.warm_start = warm_start;
    return run_stages(session, options, ops);
  } catch (const InternalError& e) {
    *internal = std::string("internal: ") + e.what();
    return {};
  }
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& options) : options_(options) {}

  // Set-up is short, so it repeats until the set-ups span a quarter second
  // or more: the median of a shorter stretch moves with a shared machine's
  // slow spells.
  int setup_repeats() const override { return 41; }
  // One round of 1000 configurations leaves 10 latencies beyond p99.
  double tail_percentile() const override { return 99; }
  int min_units() const override { return 1; }

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    designs_.clear();
    std::vector<workloads::Workload> all;
    {
      Scope s("workloads", "suite");
      all = workloads::suite();
    }
    for (int i = 0; i < kRandomDesigns; ++i) {
      workloads::RandomCdfgOptions opts;
      opts.target_ops = 60 + 40 * i;  // 60..500, one design per size step
      Scope s("workloads", "make_random_cdfg");
      all.push_back(workloads::make_random_cdfg(kDesignSeed + i, opts));
    }
    for (workloads::Workload& w : all) designs_.push_back(compile_design(std::move(w)));
    const double elapsed = seconds_between(t0, Clock::now());
    std::mt19937_64 rng(kDrawSeed);
    draws_ = draw(rng, designs_.size());
    return elapsed;
  }

  Phase run(double seconds, int max_units) override {
    Phase phase;
    batches_.clear();
    const bool via_explore = options_.variant.empty();
    const bool warm = options_.variant != "run-cold";
    std::int64_t request = 0;
    const Clock::time_point start = Clock::now();
    for (;;) {
      Scope round("harness", "round");
      const Clock::time_point round_start = Clock::now();
      const std::size_t round_first = phase.points.size();
      std::mt19937_64 rng(options_.seed * 1000003 + static_cast<std::uint64_t>(phase.units));
      std::vector<std::size_t> order(designs_.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::size_t di : order) {
        const Design& d = designs_[di];
        Batch batch;
        batch.design = di;
        batch.configs = draws_[di];
        std::shuffle(batch.configs.begin(), batch.configs.end(), rng);
        const Clock::time_point t0 = Clock::now();
        if (via_explore) {
          std::vector<double> stamps;
          stamps.reserve(batch.configs.size());
          core::ExploreOptions eo;
          eo.threads = 1;
          eo.progress = [&stamps](const core::ExplorePoint&, std::size_t, std::size_t) {
            stamps.push_back(seconds_between(Clock::time_point(), Clock::now()));
          };
          {
            Scope s("core", "explore", request);
            batch.points = core::explore(*d.session, batch.configs, eo);
          }
          double prev = seconds_between(Clock::time_point(), t0);
          for (double stamp : stamps) {
            phase.latencies.push_back(stamp - prev);
            prev = stamp;
          }
          if (tracer().enabled()) {
            double sched_s = 0;
            for (const core::ExplorePoint& pt : batch.points) sched_s += pt.sched_seconds;
            counts().add("core.explore_s", seconds_between(t0, Clock::now()));
            counts().add("core.explore_sched_s", sched_s);
          }
          for (const core::ExplorePoint& pt : batch.points) {
            Point p = point_from_explore(pt, d.ops_in);
            p.request = request++;
            phase.points.push_back(std::move(p));
          }
        } else {
          // The sensitivity self-test's path: each configuration through the
          // staged FlowSession API, where FlowOptions::warm_start is reachable.
          for (const core::ExploreConfig& cfg : batch.configs) {
            Scope s("harness", "point", request);
            const Clock::time_point p0 = Clock::now();
            std::string internal;
            core::FlowResult r = run_config(*d.session, cfg, warm, d.ops_out, &internal);
            Point p = point_from_result(r, d.ops_in);
            if (!internal.empty()) {
              p.outcome = Outcome::kError;
              p.code = "internal";
            }
            phase.latencies.push_back(seconds_between(p0, Clock::now()));
            p.request = request++;
            phase.points.push_back(std::move(p));
          }
        }
        batches_.push_back(std::move(batch));
      }
      ++phase.units;
      phase.slice_rates.push_back(static_cast<double>(phase.points.size() - round_first) /
                                  seconds_between(round_start, Clock::now()));
      if (phase.units == 1) {
        for (const Point& p : phase.points) phase.digest = fnv1a(digest_text(p), phase.digest);
        phase.digest_scope = "first round (" + std::to_string(phase.points.size()) + " points)";
      }
      if (finished(phase.units, seconds_between(start, Clock::now()), seconds, max_units)) break;
    }
    phase.elapsed_s = seconds_between(start, Clock::now());
    phase.peak_rss_mb = peak_rss_mb();
    return phase;
  }

  void check(const Phase& phase, Checks& checks) override {
    // Re-run configurations through the staged API: the result must equal
    // what the timed phase reported, and every feasible point is
    // co-simulated against the original design. Untraced runs re-run the
    // feasible points only (co-simulation needs their RTL); traced runs
    // re-run every point, which is where the per-stage layer numbers of
    // explore()'s work come from.
    std::size_t next = 0;
    for (const Batch& batch : batches_) {
      const Design& d = designs_[batch.design];
      for (std::size_t i = 0; i < batch.configs.size(); ++i, ++next) {
        const core::ExploreConfig& cfg = batch.configs[i];
        const Point& reported = phase.points[next];
        if (!tracer().enabled() && reported.outcome != Outcome::kFeasible) continue;
        Scope s("check", "rerun", reported.request);
        std::string internal;
        core::FlowResult r;
        try {
          r = run_config(*d.session, cfg, /*warm_start=*/true, d.ops_out, &internal);
        } catch (const std::exception& e) {
          checks.fail(label(d, cfg) + ": re-run threw: " + e.what());
          continue;
        }
        ++checks.rerun_points;
        if (tracer().enabled()) {
          counts().add("check.rerun_other_stage_s", r.timings.microarch_seconds +
                                                        r.timings.rtl_seconds +
                                                        r.timings.synth_seconds);
        }
        Point again = point_from_result(r, d.ops_in);
        if (!internal.empty()) {
          again.outcome = Outcome::kError;
          again.code = "internal";
        }
        if (options_.variant != "run-cold" &&
            digest_text(again) != digest_text(reported)) {
          checks.fail(label(d, cfg) + ": re-run differs from the timed phase");
          continue;
        }
        if (!r.success) continue;
        std::string why;
        try {
          Scope c("check", "cosim");
          ++checks.cosim_points;
          if (!cosimulate(d.original, r, options_.seed * 7919 + next, &why)) {
            checks.fail(label(d, cfg) + ": " + why);
          }
        } catch (const std::exception& e) {
          checks.fail(label(d, cfg) + ": co-simulation threw: " + e.what());
        }
      }
    }
  }

 private:
  struct Batch {
    std::size_t design = 0;
    std::vector<core::ExploreConfig> configs;
    std::vector<core::ExplorePoint> points;
  };

  /// One round's draws, kDrawsPerDesign per design. Every grid axis is
  /// stratified over the round (balanced_levels): the mix of latencies, IIs,
  /// clocks and backends is the same in every round and only their pairing
  /// with each other and with the designs is random.
  static std::vector<std::vector<core::ExploreConfig>> draw(std::mt19937_64& rng,
                                                            std::size_t designs) {
    const int slots = static_cast<int>(designs) * kDrawsPerDesign;
    const std::vector<int> lat = balanced_levels(slots, std::size(kLatencies), rng);
    const std::vector<int> ii = balanced_levels(slots, std::size(kIis), rng);
    const std::vector<int> tclk = balanced_levels(slots, 24, rng);  // 700..3000 ps
    const std::vector<int> backend = balanced_levels(slots, std::size(kBackends), rng);
    std::vector<std::vector<core::ExploreConfig>> out(designs);
    for (int s = 0; s < slots; ++s) {
      core::ExploreConfig cfg;
      cfg.latency = kLatencies[lat[s]];
      const int pick = kIis[ii[s]];
      cfg.solve_min_ii = pick < 0;
      cfg.pipeline_ii = pick < 0 ? 0 : pick;
      cfg.tclk_ps = 700.0 + 100.0 * tclk[s];
      cfg.backend = kBackends[backend[s]];
      cfg.curve = "sweep";
      out[static_cast<std::size_t>(s / kDrawsPerDesign)].push_back(cfg);
    }
    return out;
  }

  static std::string label(const Design& d, const core::ExploreConfig& cfg) {
    return "sweep: " + d.session->name() + " tclk=" + std::to_string(static_cast<int>(cfg.tclk_ps)) +
           " latency=" + std::to_string(cfg.latency) +
           " ii=" + (cfg.solve_min_ii ? std::string("min") : std::to_string(cfg.pipeline_ii)) +
           " backend=" + sched::backend_name(cfg.backend);
  }

  Options options_;
  std::vector<Design> designs_;
  std::vector<std::vector<core::ExploreConfig>> draws_;  ///< by design
  std::vector<Batch> batches_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}

}  // namespace perfbench
