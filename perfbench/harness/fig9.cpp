// fig9: the paper's Figure 9 profiling suite (workloads::make_profile_suite,
// 40 designs of 36-6031 ops), each compiled once into a FlowSession during
// set-up and then run through the staged flow at default options
// (sequential, 1600 ps, designer latency bound, list backend, Verilog on).
// One thread; the whole suite is repeated until the run's time is up, so
// every unit does equal work, each pass in its own order shuffled by the
// seed (a design's time depends a little on what ran before it).
#include <algorithm>
#include <random>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace hls;

class Fig9 final : public Workload {
 public:
  explicit Fig9(const Options& options) : options_(options) {}

  // A machine's slow spells can last seconds; five set-ups span more of
  // them than three.
  int setup_repeats() const override { return 5; }
  // 3 passes of 40 designs leave 12 latencies beyond p90.
  double tail_percentile() const override { return 90; }
  int min_units() const override { return 3; }

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    designs_.clear();
    std::vector<workloads::Workload> suite;
    {
      Scope s("workloads", "make_profile_suite");
      suite = workloads::make_profile_suite();
    }
    for (workloads::Workload& w : suite) designs_.push_back(compile_design(std::move(w)));
    return seconds_between(t0, Clock::now());
  }

  Phase run(double seconds, int max_units) override {
    core::FlowOptions flow;  // the paper's default configuration
    if (options_.variant == "cold") flow.warm_start = false;
    Phase phase;
    first_pass_.clear();
    first_pass_.resize(designs_.size());
    point_design_.clear();
    std::vector<std::size_t> order(designs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(options_.seed);
    std::int64_t request = 0;
    const Clock::time_point start = Clock::now();
    for (;;) {
      std::shuffle(order.begin(), order.end(), rng);
      Scope pass("harness", "suite_pass");
      const Clock::time_point pass_start = Clock::now();
      for (const std::size_t index : order) {
        const Design& d = designs_[index];
        Scope point("harness", "point", request);
        const Clock::time_point t0 = Clock::now();
        Point p;
        core::FlowResult r;
        try {
          r = run_stages(*d.session, flow, d.ops_out);
          phase.latencies.push_back(seconds_between(t0, Clock::now()));
          p = point_from_result(r, d.ops_in);
        } catch (const std::exception& e) {
          phase.latencies.push_back(seconds_between(t0, Clock::now()));
          p.outcome = Outcome::kError;
          p.code = std::string("exception: ") + e.what();
        }
        // The result is freed outside the point's latency.
        if (phase.units == 0) first_pass_[index] = std::move(r);
        p.request = request++;
        phase.points.push_back(std::move(p));
        point_design_.push_back(index);
      }
      ++phase.units;
      phase.slice_rates.push_back(static_cast<double>(order.size()) /
                                  seconds_between(pass_start, Clock::now()));
      if (phase.units == 1) {
        for (const Point& p : phase.points) phase.digest = fnv1a(digest_text(p), phase.digest);
      }
      if (finished(phase.units, seconds_between(start, Clock::now()), seconds, max_units)) break;
    }
    phase.elapsed_s = seconds_between(start, Clock::now());
    phase.digest_scope = "first suite pass (" + std::to_string(order.size()) + " designs)";
    phase.peak_rss_mb = peak_rss_mb();
    return phase;
  }

  void check(const Phase& phase, Checks& checks) override {
    // Every later pass must reproduce the first one exactly.
    std::vector<const Point*> first(designs_.size(), nullptr);
    for (std::size_t i = 0; i < phase.points.size(); ++i) {
      const std::size_t index = point_design_[i];
      if (first[index] == nullptr) {
        first[index] = &phase.points[i];
      } else if (digest_text(phase.points[i]) != digest_text(*first[index])) {
        checks.fail("fig9: " + designs_[index].session->name() +
                    " gave a different result on suite pass " +
                    std::to_string(i / designs_.size() + 1));
      }
    }
    for (std::size_t index = 0; index < designs_.size(); ++index) {
      const core::FlowResult& r = first_pass_[index];
      if (!r.success) continue;
      const Design& d = designs_[index];
      std::string why;
      try {
        Scope s("check", "cosim");
        ++checks.cosim_points;
        if (!cosimulate(d.original, r, options_.seed * 7919 + index, &why)) {
          checks.fail("fig9: " + d.session->name() + ": " + why);
        }
      } catch (const std::exception& e) {
        checks.fail("fig9: " + d.session->name() + ": co-simulation threw: " + e.what());
      }
    }
  }

 private:
  Options options_;
  std::vector<Design> designs_;
  std::vector<core::FlowResult> first_pass_;  ///< by design index
  std::vector<std::size_t> point_design_;     ///< design index of each point
};

}  // namespace

std::unique_ptr<Workload> make_fig9(const Options& options) {
  return std::make_unique<Fig9>(options);
}

}  // namespace perfbench
