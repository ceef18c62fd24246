// Job intake for the serving layer: a job names a design (bundled kernel,
// inline DSL source, or seeded random CDFG) plus a grid of explore
// configurations to run against it. Jobs arrive as JSON — one object, a
// top-level array, or {"jobs": [...]} — from a job file or a socket line.
//
//   {"id": 1, "workload": "idct8",
//    "grid": {"tclk_ps": [1450, 1600], "latency": [16], "ii": [8]}}
//   {"id": 2, "source": "module m { ... }",
//    "points": [{"tclk_ps": 1600, "latency": 12}]}
//
// A job may carry a per-point work-unit budget and/or an advisory
// wall-clock deadline (docs/FAULTS.md):
//
//   {"id": 3, "workload": "ewf", "deadline_ms": 500,
//    "budget": {"passes": 4, "commits": 10000, "relax_steps": 100000},
//    "grid": {...}}
//
// Job ids are the determinism anchor: admission, execution rounds and the
// output stream are ordered by id, never by arrival order or thread
// timing (docs/SERVE.md). Ids must be unique and non-negative.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/explore.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "workloads/workloads.hpp"

namespace hls::serve {

struct JobRequest {
  std::int64_t id = -1;  ///< required, unique, >= 0
  /// Bundled kernel name (see workload_names()); exclusive with `source`.
  std::string workload;
  /// Inline `.hls` DSL source (frontend::parse_module grammar).
  std::string source;
  /// Parameters for workload == "random" (workloads::make_random_cdfg).
  std::uint64_t random_seed = 1;
  int random_ops = 200;
  /// The configurations to run, in stream order.
  std::vector<core::ExploreConfig> points;
  /// Per-point work-unit budget / advisory deadline, copied into every
  /// point's ExploreConfig at parse time ("budget" + "deadline_ms" keys).
  /// Work-unit exhaustion is deterministic: the same point fails with the
  /// same [schedule/budget_exhausted] line at every thread count.
  support::BudgetLimits budget = {};
};

/// The bundled kernel names resolve_workload accepts (plus "random").
const std::vector<std::string>& workload_names();

/// Deterministic string identifying the job's design spec — the session
/// cache's pre-compile memo key. Two jobs with equal spec keys compile to
/// the same module; the reverse is NOT required (renamed-but-identical
/// sources get distinct spec keys and are collided post-compile by
/// FlowSession::module_hash).
std::string spec_key(const JobRequest& job);

/// Builds the job's workload. On an unknown name or DSL parse error,
/// returns false and sets `error`; `out` is untouched.
bool resolve_workload(const JobRequest& job, workloads::Workload* out,
                      std::string* error);

/// Parses one job object. On error returns false and sets `error`.
bool parse_job(const JsonValue& v, JobRequest* out, std::string* error);

/// Parses a job document: a single object, an array of objects, or
/// {"jobs": [...]}. Appends good jobs to `out`; each malformed job adds
/// one message to `errors`. Returns false only when `text` is not valid
/// JSON at all.
bool parse_jobs(std::string_view text, std::vector<JobRequest>* out,
                std::vector<std::string>* errors);

}  // namespace hls::serve
