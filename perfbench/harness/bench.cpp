#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "ir/interp.hpp"
#include "rtl/sim.hpp"

namespace perfbench {

using namespace hls;

Tracer& tracer() {
  static Tracer t;
  return t;
}

LayerCounts& counts() {
  static LayerCounts c;
  return c;
}

int Tracer::open(const char* layer, const char* name, std::int64_t request) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.start = seconds_between(epoch_, Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request >= 0 || s.parent < 0 ? request : spans_[s.parent].request;
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id) {
  spans_[id].end = seconds_between(epoch_, Clock::now());
  // Spans close in LIFO order (Scope is RAII).
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"layer\":\"%s\",\"name\":\"%s\",\"start\":%.9f,"
                  "\"end\":%.9f,\"parent\":%d,\"request\":%lld}\n",
                  s.layer, s.name, s.start, s.end, s.parent,
                  static_cast<long long>(s.request));
    out << buf;
  }
  return static_cast<bool>(out);
}

Outcome classify_failure(const std::string& failure) {
  if (failure.empty() || failure[0] != '[') return Outcome::kError;
  const std::string code = failure_code(failure);
  for (const char* undecided :
       {"/pass_budget_exhausted]", "/budget_exhausted]", "/deadline_exceeded]",
        "/cancelled]"}) {
    if (code.size() >= std::string_view(undecided).size() &&
        code.compare(code.size() - std::string_view(undecided).size(),
                     std::string::npos, undecided) == 0) {
      return Outcome::kUndecided;
    }
  }
  return Outcome::kVerdict;
}

std::string failure_code(const std::string& failure) {
  if (!failure.empty() && failure[0] == '[') {
    const std::size_t close = failure.find(']');
    if (close != std::string::npos) return failure.substr(0, close + 1);
  }
  return failure.rfind("internal:", 0) == 0 ? "internal" : failure;
}

std::string describe_failure(const core::FlowResult& r) {
  for (auto it = r.diagnostics.rbegin(); it != r.diagnostics.rend(); ++it) {
    if (it->severity != Severity::kError) continue;
    return "[" + it->stage + "/" + it->code + "] " + r.failure_reason;
  }
  return r.failure_reason;
}

std::string digest_text(const Point& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%d|%.17g|%.17g|%d|%d|", static_cast<int>(p.outcome),
                p.area, p.delay_ns, p.ii, p.passes);
  return buf + p.code + "\n";
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

bool cosimulate(const ir::Module& original, const core::FlowResult& r,
                std::uint64_t seed, std::string* why) {
  constexpr int kIterations = 12;
  std::mt19937_64 rng(seed);
  ir::Stimulus stimulus;
  for (const ir::Port& port : original.ports) {
    if (port.dir != ir::PortDir::kIn) continue;
    const std::int64_t lo = std::max<std::int64_t>(ir::type_min(port.type), -1000);
    const std::int64_t hi = std::min<std::int64_t>(ir::type_max(port.type), 1000);
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    std::vector<std::int64_t> values;
    for (int i = 0; i < kIterations; ++i) values.push_back(dist(rng));
    stimulus.set(port.name, std::move(values));
  }
  const ir::InterpResult ref = ir::interpret(original, stimulus);
  const rtl::SimResult sim = rtl::simulate(r.machine, stimulus);
  const auto want = ir::writes_by_port(original, ref.writes);
  const auto got = ir::writes_by_port(*r.module, sim.writes);
  if (want == got) return true;
  *why = "RTL outputs differ from the reference interpreter on " +
         std::to_string(want.size()) + " ports";
  return false;
}

Design compile_design(workloads::Workload w) {
  Design d;
  d.original = w.module;
  d.ops_in = w.op_count();
  {
    Scope s("opt", "FlowSession");
    d.session = std::make_unique<core::FlowSession>(std::move(w));
  }
  d.ops_out = static_cast<int>(
      d.session->module().thread.tree.ops_in(d.session->loop(), /*into_nested_loops=*/false).size());
  if (tracer().enabled()) {
    counts().add("opt.ops_in", d.ops_in);
    counts().add("opt.ops_out", d.ops_out);
  }
  return d;
}

core::FlowOptions flow_options(const core::ExploreConfig& cfg) {
  core::FlowOptions o;
  o.tclk_ps = cfg.tclk_ps;
  o.backend = cfg.backend;
  o.pipeline_ii = cfg.pipeline_ii;
  o.solve_min_ii = cfg.solve_min_ii;
  o.latency_min = cfg.latency;
  o.latency_max = cfg.latency;
  o.memory_aware = cfg.memory_aware;
  o.budget = cfg.budget;
  o.emit_verilog = false;
  return o;
}

namespace {

bool budget_exhausted(const std::string& code) {
  return code == "pass_budget_exhausted" || code == "budget_exhausted";
}

}  // namespace

core::FlowResult run_stages(const core::FlowSession& session,
                            const core::FlowOptions& options, int session_ops) {
  core::FlowRun run = session.begin(options);
  bool ok = false;
  {
    Scope s("core", "select_microarch");
    ok = run.select_microarch();
  }
  if (ok) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope s("sched", "schedule");
      ok = run.schedule();
    }
    if (tracer().enabled()) {
      const double dt = seconds_between(t0, Clock::now());
      const sched::SchedulerResult& sr = run.result().sched;
      LayerCounts& c = counts();
      std::uint64_t propagation = 0;
      for (const sched::PassRecord& rec : sr.history) propagation += rec.propagation_relaxations;
      c.add("sched.calls", 1);
      c.add("sched.passes", sr.passes);
      c.add("sched.relaxations", sr.relaxations());
      c.add("sched.timing_queries", static_cast<double>(sr.timing_queries));
      c.add("sched.engine_commits", static_cast<double>(sr.engine_commits));
      c.add("sched.relax_steps", static_cast<double>(sr.relax_steps));
      c.add("sched.propagation_relaxations", static_cast<double>(propagation));
      c.add("sched.memory_restraints", sr.memory_restraints);
      c.add("sched.op_passes", static_cast<double>(sr.passes) * session_ops);
      if (sr.success) c.add("sched.feasible_passes", sr.passes);
      if (budget_exhausted(sr.failure_code)) {
        c.add("sched.exhausted_passes", sr.passes);
        c.add("sched.exhausted_busy_s", dt);
      }
      c.add(sr.backend == sched::BackendKind::kSdc ? "sched.sdc.busy_s" : "sched.list.busy_s", dt);
      if (options.backend == sched::BackendKind::kAuto) {
        c.add("sched.auto_points", 1);
        if (sr.backend == sched::BackendKind::kSdc) c.add("sched.auto_sdc_points", 1);
      }
      if (options.solve_min_ii) c.add("sched.min_ii.busy_s", dt);
    }
  }
  if (ok) {
    Scope s("rtl", "generate_rtl");
    ok = run.generate_rtl();
  }
  if (ok) {
    if (tracer().enabled()) counts().add("rtl.verilog_bytes", static_cast<double>(run.result().verilog.size()));
    Scope s("synth", "estimate");
    run.estimate();
  }
  return run.take();
}

Point point_from_result(const core::FlowResult& r, int ops) {
  Point p;
  p.ops = ops;
  p.passes = r.sched.passes;
  if (r.success) {
    p.outcome = Outcome::kFeasible;
    p.area = r.area.total();
    p.delay_ns = r.delay_ns;
    p.ii = r.machine.loop.initiation_interval();
  } else {
    const std::string failure = describe_failure(r);
    p.outcome = classify_failure(failure);
    p.code = failure_code(failure);
  }
  return p;
}

std::vector<int> balanced_levels(int slots, int levels, std::mt19937_64& rng) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(slots));
  // Whole cycles first, then a random subset of levels for the remainder.
  std::vector<int> cycle(static_cast<std::size_t>(levels));
  for (int i = 0; i < levels; ++i) cycle[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i + levels <= slots; i += levels) out.insert(out.end(), cycle.begin(), cycle.end());
  std::shuffle(cycle.begin(), cycle.end(), rng);
  out.insert(out.end(), cycle.begin(), cycle.begin() + (slots - static_cast<int>(out.size())));
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
