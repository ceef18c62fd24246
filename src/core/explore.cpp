#include "core/explore.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "support/diagnostics.hpp"

namespace hls::core {

ExplorePoint run_point(const FlowSession& session, const ExploreConfig& cfg,
                       RunPointExtras* extras) {
  ExplorePoint pt;
  pt.curve = cfg.curve;
  pt.tclk_ps = cfg.tclk_ps;
  pt.latency = cfg.latency;
  pt.pipelined = cfg.pipeline_ii > 0 || cfg.solve_min_ii;

  FlowOptions opts;
  opts.tclk_ps = cfg.tclk_ps;
  opts.backend = cfg.backend;
  opts.pipeline_ii = cfg.pipeline_ii;
  opts.solve_min_ii = cfg.solve_min_ii;
  opts.latency_min = cfg.latency;
  opts.latency_max = cfg.latency;
  opts.memory_aware = cfg.memory_aware;
  opts.budget = cfg.budget;
  opts.emit_verilog = false;
  if (extras != nullptr) {
    opts.seed = extras->seed;
    opts.record_seed = extras->record_seed;
    opts.stop = extras->stop;
  }
  pt.backend = sched::backend_name(cfg.backend);
  try {
    FlowResult r = session.run(opts);
    // Report the backend that actually ran (kAuto resolves per problem
    // inside schedule_region). A run that failed before the schedule
    // stage keeps the requested name — nothing was resolved.
    const bool reached_schedule =
        r.success ||
        std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                    [](const Diagnostic& d) { return d.stage == "schedule"; });
    if (reached_schedule) {
      pt.backend = sched::backend_name(r.sched.backend);
      pt.min_ii = r.sched.min_ii;
    }
    pt.sched_seconds = r.sched_seconds;
    pt.passes = r.sched.passes;
    pt.relaxations = r.sched.relaxations();
    pt.seed_use = sched::seed_use_name(r.sched.seed_use);
    pt.memory_restraints = r.sched.memory_restraints;
    for (const sched::PassRecord& rec : r.sched.history) {
      pt.constraint_edges += rec.constraint_edges;
      pt.propagation_relaxations += rec.propagation_relaxations;
    }
    for (const alloc::ResourcePool& pool : r.sched.schedule.resources.pools) {
      if (!pool.is_memory) continue;
      pt.mem_banks += pool.banks;
      pt.mem_ports += pool.count;
    }
    if (r.success) {
      pt.feasible = true;
      pt.delay_ns = r.delay_ns;
      pt.area = r.area.total();
      pt.power_mw = r.power.total_mw();
      if (extras != nullptr && extras->record_seed) {
        extras->seed_out = std::move(r.sched.seed_out);
        extras->seed_recorded = true;
      }
    } else {
      pt.failure = r.failure_reason;
      // Lead with the structured coordinates of the diagnostic that
      // failed the run (the last error is the one that stopped it).
      for (auto it = r.diagnostics.rbegin(); it != r.diagnostics.rend();
           ++it) {
        if (it->severity != Severity::kError) continue;
        pt.failure = strf("[", it->stage, "/", it->code, "] ",
                          r.failure_reason);
        pt.cancelled = it->code == "cancelled";
        break;
      }
    }
  } catch (const InternalError& e) {
    // Safety net. A clock too short for the library fails inside the flow
    // as [schedule/clock_too_short]; an internal assertion that still
    // escapes is reported as this configuration's failure, like a failed
    // run, rather than aborting the grid.
    pt.failure = strf("internal: ", e.what());
  }
  return pt;
}

std::vector<ExplorePoint> explore(const FlowSession& session,
                                  const std::vector<ExploreConfig>& configs,
                                  const ExploreOptions& options) {
  std::vector<ExplorePoint> points(configs.size());
  if (configs.empty()) return points;

  // 0 = one worker per hardware thread; anything negative is clamped to
  // serial rather than silently fanning out.
  std::size_t threads = 1;
  if (options.threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  } else if (options.threads > 0) {
    threads = static_cast<std::size_t>(options.threads);
  }
  threads = std::min(threads, configs.size());

  std::mutex progress_mutex;
  std::size_t completed = 0;
  auto report = [&](const ExplorePoint& pt) {
    if (!options.progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    options.progress(pt, ++completed, configs.size());
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      points[i] = run_point(session, configs[i]);
      report(points[i]);
    }
    return points;
  }

  // Worker pool over an atomic work index. Each worker writes only its own
  // slot, so the result vector is ordered like `configs` no matter which
  // worker picks which configuration up.
  std::vector<std::exception_ptr> errors(configs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < configs.size();
         i = next.fetch_add(1)) {
      try {
        points[i] = run_point(session, configs[i]);
        report(points[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  // Deterministic error propagation: the lowest-index failure wins, as it
  // would have in a serial run.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return points;
}

std::vector<ExplorePoint> explore(
    const std::function<workloads::Workload()>& make_workload,
    const std::vector<ExploreConfig>& configs, const ExploreOptions& options) {
  const FlowSession session(make_workload());
  return explore(session, configs, options);
}

std::vector<ExploreConfig> idct_paper_grid() {
  // 5 micro-architectures x 5 clock periods = 25 runs (paper Section VI:
  // "We performed 25 HLS and logic synthesis runs").
  struct Arch {
    const char* name;
    int latency;
    int ii;  // 0 = sequential
  };
  const Arch archs[] = {
      {"Non-Pipelined 8", 8, 0},   {"Non-Pipelined 16", 16, 0},
      {"Non-Pipelined 32", 32, 0}, {"Pipelined 16", 16, 8},
      {"Pipelined 32", 32, 16},
  };
  const double clocks[] = {1300, 1450, 1600, 1850, 2200};
  std::vector<ExploreConfig> grid;
  for (const Arch& a : archs) {
    for (double t : clocks) {
      ExploreConfig cfg;
      cfg.curve = a.name;
      cfg.tclk_ps = t;
      cfg.latency = a.latency;
      cfg.pipeline_ii = a.ii;
      grid.push_back(cfg);
    }
  }
  return grid;
}

}  // namespace hls::core
