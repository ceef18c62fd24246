// Benchmark harness entry point. Runs one workload in this process:
// set-up (repeated; setup_s is the median), one untraced timed phase for
// the end-to-end metrics, optionally one traced phase doing the same work
// for the per-layer metrics, then the output checks. The last stdout line
// is one JSON object; perfbench/run.py builds and invokes this binary.
//
//   perfbench_harness --workload fig9 --seed 1 --seconds 10 --trace 0
//       --expect-source-hash <sha256> [--units N] [--variant NAME] [--spans PATH]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "build_info.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int units = 0;
  std::string variant;
  std::string spans;
  std::string expect_hash;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload fig9|sweep|serve --seed N "
               "--seconds S --trace 0|1 --expect-source-hash H [--units N] "
               "[--variant cold|run-warm|run-cold|threads1] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--units") {
      a.units = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.units < 0) usage("--units takes a whole number");
    } else if (flag == "--variant") {
      a.variant = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--expect-source-hash") {
      a.expect_hash = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The workload's tail percentile (nearest rank) and the number of samples
/// beyond it. Workload::min_units makes a full run have at least ten.
struct Tail {
  double value = 0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v, double percentile) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(percentile * static_cast<double>(n) / 100.0)));
  t.value = v[rank - 1];
  t.beyond = n - rank;
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Per-layer aggregation of the recorded spans.
struct LayerTime {
  double calls = 0;
  double busy = 0;  ///< outermost spans of the layer only
  double self = 0;  ///< busy minus time in child spans
};

std::map<std::string, LayerTime> aggregate(const std::vector<Span>& spans,
                                           std::map<std::string, double>* by_name) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = s.end - s.start;
    bool nested = false;
    for (int p = s.parent; p >= 0; p = spans[p].parent) {
      if (std::strcmp(spans[p].layer, s.layer) == 0) {
        nested = true;
        break;
      }
    }
    LayerTime& l = layers[s.layer];
    l.calls += 1;
    if (!nested) l.busy += d;
    l.self += d - child_time[i];
    (*by_name)[std::string(s.layer) + "::" + s.name] += d;
  }
  return layers;
}

int run(const Args& args) {
  std::printf("build: compiler=\"%s\" type=%s flags=\"%s\" source_sha256=%s\n", build::kCompiler,
              build::kBuildType, build::kFlags, build::kSourceHash);
  if (args.expect_hash.empty()) usage("--expect-source-hash is required");
  if (args.expect_hash != build::kSourceHash) {
    std::fprintf(stderr,
                 "error: stale build: the harness was built from sources with sha256 %s, "
                 "the tree under test hashes to %s; rebuild through perfbench/run.py\n",
                 build::kSourceHash, args.expect_hash.c_str());
    return 3;
  }

  Options options;
  options.seed = args.seed;
  options.variant = args.variant;
  std::unique_ptr<Workload> workload;
  if (args.workload == "fig9") {
    workload = make_fig9(options);
  } else if (args.workload == "sweep") {
    workload = make_sweep(options);
  } else if (args.workload == "serve") {
    workload = make_serve(options);
  } else {
    usage("unknown workload \"" + args.workload + "\"");
  }
  const std::map<std::string, std::vector<std::string>> variants = {
      {"fig9", {"cold"}}, {"sweep", {"run-warm", "run-cold"}}, {"serve", {"threads1"}}};
  if (!args.variant.empty()) {
    const auto& allowed = variants.at(args.workload);
    if (std::find(allowed.begin(), allowed.end(), args.variant) == allowed.end()) {
      usage("variant \"" + args.variant + "\" does not apply to " + args.workload);
    }
  }

  // Set-up, repeated; only the last repetition is traced.
  std::vector<double> setups;
  const int repeats = workload->setup_repeats();
  for (int i = 0; i < repeats; ++i) {
    const bool traced = args.trace && i == repeats - 1;
    tracer().set_enabled(traced);
    Scope s("harness", "setup");
    setups.push_back(workload->setup());
  }
  tracer().set_enabled(false);

  // Untraced timed phase: every end-to-end number comes from here.
  const Phase untraced = workload->run(args.seconds, args.units);
  Phase traced;
  if (args.trace) {
    tracer().set_enabled(true);
    Scope s("harness", "timed");
    traced = workload->run(args.seconds, untraced.units);
  }
  const Phase& checked = args.trace ? traced : untraced;

  Checks checks;
  {
    Scope s("check", "checks");
    workload->check(checked, checks);
  }
  if (args.trace && traced.digest != untraced.digest) {
    checks.fail("the traced phase's outputs differ from the untraced phase's");
  }
  tracer().set_enabled(false);

  // ---- End-to-end metrics (untraced phase) -------------------------------
  const Phase& ph = untraced;
  const double attempted = static_cast<double>(std::max<std::size_t>(ph.points.size(), 1));
  double feasible = 0, decided = 0, errors = 0, distinct = 0;
  std::vector<double> area_per_op, delay;
  for (const Point& p : ph.points) {
    if (p.outcome == Outcome::kError) ++errors;
    if (p.repeat) continue;
    ++distinct;
    if (p.outcome == Outcome::kFeasible) {
      ++feasible;
      area_per_op.push_back(p.area / std::max(p.ops, 1));
      delay.push_back(p.delay_ns);
    }
    if (p.outcome == Outcome::kFeasible || p.outcome == Outcome::kVerdict) ++decided;
  }
  distinct = std::max(distinct, 1.0);
  const double failed = errors + static_cast<double>(checks.problems.size());
  const Tail tail = tail_of(ph.latencies, workload->tail_percentile());
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(setups)},
      {"points_per_s", "1/s", median(ph.slice_rates)},
      {"latency_p50_s", "s", median(ph.latencies)},
      {"latency_tail_s", "s", tail.value},
      {"feasible_frac", "ratio", feasible / distinct},
      {"decided_frac", "ratio", decided / distinct},
      {"ok_frac", "ratio", 1.0 - std::min(failed, attempted) / attempted},
      {"area_per_op", "area/op", geomean(area_per_op)},
      {"delay_ns", "ns/iter", geomean(delay)},
      {"peak_rss_mb", "MB", ph.peak_rss_mb},
  };
  std::printf("workload: %s seed=%llu seconds=%g units=%d points=%zu elapsed_s=%.6f%s%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              ph.units, ph.points.size(), ph.elapsed_s, args.variant.empty() ? "" : " variant=",
              args.variant.c_str());
  for (const Metric& m : end_to_end) {
    std::printf("%s/%s = %s %s", args.workload.c_str(), m.name.c_str(),
                format_value(m.value).c_str(), m.unit.c_str());
    if (m.name == "setup_s") std::printf("  (median of %d set-ups)", repeats);
    if (m.name == "points_per_s") {
      std::printf("  (median of %zu slices:", ph.slice_rates.size());
      for (double r : ph.slice_rates) std::printf(" %.4g", r);
      std::printf("; %zu points in %.6f s overall)", ph.points.size(), ph.elapsed_s);
    }
    if (m.name == "latency_p50_s") std::printf("  (n=%zu)", ph.latencies.size());
    if (m.name == "latency_tail_s") {
      std::printf("  (p%g, n=%zu, %zu samples beyond)", workload->tail_percentile(),
                  ph.latencies.size(), tail.beyond);
    }
    std::printf("\n");
  }
  std::printf("%s/error_frac = %s ratio  (%g failed of %g attempted; ok_frac = 1 - error_frac)\n",
              args.workload.c_str(), format_value(std::min(failed, attempted) / attempted).c_str(),
              failed, attempted);
  std::printf("digest: fnv1a64=%016llx over the %s\n",
              static_cast<unsigned long long>(ph.digest), ph.digest_scope.c_str());
  std::printf("checks: %lld co-simulated, %lld re-run, %zu problems\n",
              static_cast<long long>(checks.cosim_points),
              static_cast<long long>(checks.rerun_points), checks.problems.size());
  for (std::size_t i = 0; i < checks.problems.size() && i < 20; ++i) {
    std::printf("  problem: %s\n", checks.problems[i].c_str());
  }

  // ---- Per-layer metrics (traced run) -----------------------------------
  std::vector<Metric> per_layer;
  if (args.trace) {
    std::map<std::string, double> by_name;
    const auto layers = aggregate(tracer().spans(), &by_name);
    const LayerCounts& c = counts();
    auto busy = [&](const char* layer) {
      auto it = layers.find(layer);
      return it == layers.end() ? 0.0 : it->second.busy;
    };
    auto calls = [&](const char* layer) {
      auto it = layers.find(layer);
      return it == layers.end() ? 0.0 : it->second.calls;
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    std::map<std::string, double> extra;
    workload->layer_metrics(extra);
    const double sched_busy = busy("sched");
    const double passes = c.get("sched.passes");
    per_layer = {
        {"workloads.busy_s", "s", busy("workloads")},
        {"frontend.calls", "count", calls("frontend")},
        {"frontend.busy_s", "s", busy("frontend")},
        {"opt.calls", "count", calls("opt")},
        {"opt.busy_s", "s", busy("opt")},
        {"opt.ops_in", "ops", c.get("opt.ops_in")},
        {"opt.ops_out", "ops", c.get("opt.ops_out")},
        {"core.microarch_busy_s", "s", by_name["core::select_microarch"]},
        {"core.explore_overhead_s", "s",
         c.get("core.explore_s") > 0 ? c.get("core.explore_s") - c.get("core.explore_sched_s") -
                                           c.get("check.rerun_other_stage_s")
                                     : 0.0},
        {"sched.calls", "count", c.get("sched.calls")},
        {"sched.busy_s", "s", sched_busy},
        {"sched.passes", "count", passes},
        {"sched.relaxations", "count", c.get("sched.relaxations")},
        {"sched.timing_queries", "count", c.get("sched.timing_queries")},
        {"sched.engine_commits", "count", c.get("sched.engine_commits")},
        {"sched.relax_steps", "count", c.get("sched.relax_steps")},
        {"sched.propagation_relaxations", "count", c.get("sched.propagation_relaxations")},
        {"sched.memory_restraints", "count", c.get("sched.memory_restraints")},
        {"sched.ns_per_op_pass", "ns", ratio(sched_busy * 1e9, c.get("sched.op_passes"))},
        {"sched.feasible_pass_frac", "ratio", ratio(c.get("sched.feasible_passes"), passes)},
        {"sched.exhausted_pass_frac", "ratio", ratio(c.get("sched.exhausted_passes"), passes)},
        {"sched.exhausted_busy_frac", "ratio",
         ratio(c.get("sched.exhausted_busy_s"), sched_busy)},
        {"sched.list.busy_s", "s", c.get("sched.list.busy_s")},
        {"sched.sdc.busy_s", "s", c.get("sched.sdc.busy_s")},
        {"sched.auto_sdc_frac", "ratio", ratio(c.get("sched.auto_sdc_points"), c.get("sched.auto_points"))},
        {"sched.min_ii.busy_s", "s", c.get("sched.min_ii.busy_s")},
        {"rtl.calls", "count", calls("rtl")},
        {"rtl.busy_s", "s", busy("rtl")},
        {"rtl.verilog_bytes", "bytes", c.get("rtl.verilog_bytes")},
        {"synth.calls", "count", calls("synth")},
        {"synth.busy_s", "s", busy("synth")},
        {"serve.submit_busy_s", "s", by_name["serve::submit_text"]},
        {"serve.drain_busy_s", "s", by_name["serve::drain"]},
        {"serve.rounds", "count", extra["serve.rounds"]},
        {"serve.sessions_compiled", "count", extra["serve.sessions_compiled"]},
        {"serve.session_evictions", "count", extra["serve.session_evictions"]},
        {"serve.session_hit_frac", "ratio", extra["serve.session_hit_frac"]},
        {"serve.trace_exact_hit_frac", "ratio", extra["serve.trace_exact_hit_frac"]},
        {"serve.trace_neighbor_hit_frac", "ratio", extra["serve.trace_neighbor_hit_frac"]},
        {"serve.passes_per_point", "passes/point", extra["serve.passes_per_point"]},
        {"check.cosim_points", "count", static_cast<double>(checks.cosim_points)},
        {"check.busy_s", "s", busy("check")},
        {"harness.self_s", "s", layers.count("harness") ? layers.at("harness").self : 0.0},
        {"trace.overhead_frac", "ratio", traced.elapsed_s / untraced.elapsed_s - 1.0},
    };
    double total = 0;
    for (const auto& entry : layers) total += entry.second.self;
    std::printf("\ntraced run: %zu spans, %d units, timed phase %.6f s traced vs %.6f s untraced\n",
                tracer().spans().size(), traced.units, traced.elapsed_s, untraced.elapsed_s);
    std::printf("%-10s %10s %14s %14s %8s\n", "layer", "calls", "busy_s", "self_s", "self%");
    for (const auto& [name, l] : layers) {
      std::printf("%-10s %10.0f %14.6f %14.6f %7.2f%%\n", name.c_str(), l.calls, l.busy, l.self,
                  total > 0 ? 100.0 * l.self / total : 0.0);
    }
    std::printf("\n");
    for (const Metric& m : per_layer) {
      std::printf("%s/%s = %s %s\n", args.workload.c_str(), m.name.c_str(),
                  format_value(m.value).c_str(), m.unit.c_str());
    }
    if (!args.spans.empty()) {
      if (tracer().write(args.spans)) {
        std::printf("spans: %s\n", args.spans.c_str());
      } else {
        checks.fail("could not write the spans file " + args.spans);
      }
    }
  }

  // ---- Result line ---------------------------------------------------------
  const bool correct = checks.problems.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(static_cast<long long>(ph.points.size()));
  json += ", \"failed\": " + std::to_string(static_cast<long long>(failed));
  json += ", \"metrics\": {";
  const std::vector<Metric>& reported = args.trace ? per_layer : end_to_end;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json += (i == 0 ? "" : ", ");
    json += "\"" + m.name + "\": {\"value\": " + format_value(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
