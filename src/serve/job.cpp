#include "serve/job.hpp"

#include <utility>

#include "frontend/parser.hpp"
#include "support/strings.hpp"

namespace hls::serve {

namespace {

bool backend_from_name(std::string_view name, sched::BackendKind* out) {
  if (name == "list") {
    *out = sched::BackendKind::kList;
  } else if (name == "sdc") {
    *out = sched::BackendKind::kSdc;
  } else if (name == "auto") {
    *out = sched::BackendKind::kAuto;
  } else {
    return false;
  }
  return true;
}

std::string default_curve(int latency, int ii, bool solve_min_ii) {
  if (solve_min_ii) return strf("pipelined-", latency, "-iimin");
  return strf(ii > 0 ? "pipelined-" : "sequential-", latency,
              ii > 0 ? strf("-ii", ii) : std::string());
}

/// Parses one explore configuration from a point object. `backend` is the
/// job-level default, overridable per point.
bool parse_point(const JsonValue& v, sched::BackendKind backend,
                 core::ExploreConfig* out, std::string* error) {
  if (!v.is_object()) {
    *error = "point must be an object";
    return false;
  }
  core::ExploreConfig cfg;
  const JsonValue* tclk = v.find("tclk_ps");
  const JsonValue* latency = v.find("latency");
  if (tclk == nullptr || !tclk->is_number() || !(tclk->as_number() > 0)) {
    *error = "point needs a positive \"tclk_ps\"";
    return false;
  }
  if (latency == nullptr || !latency->is_number() ||
      latency->as_int() <= 0) {
    *error = "point needs a positive \"latency\"";
    return false;
  }
  cfg.tclk_ps = tclk->as_number();
  cfg.latency = static_cast<int>(latency->as_int());
  if (const JsonValue* ii = v.find("ii"); ii != nullptr) {
    // "min" asks the scheduler to solve for the smallest feasible II
    // (core::ExploreConfig::solve_min_ii) instead of pinning one.
    if (ii->is_string() && ii->as_string() == "min") {
      cfg.solve_min_ii = true;
    } else if (!ii->is_number() || ii->as_int() < 0) {
      *error = "\"ii\" must be a non-negative number or \"min\"";
      return false;
    } else {
      cfg.pipeline_ii = static_cast<int>(ii->as_int());
    }
  }
  cfg.backend = backend;
  if (const JsonValue* b = v.find("backend"); b != nullptr) {
    if (!b->is_string() || !backend_from_name(b->as_string(), &cfg.backend)) {
      *error = "\"backend\" must be \"list\", \"sdc\" or \"auto\"";
      return false;
    }
  }
  if (const JsonValue* curve = v.find("curve");
      curve != nullptr && curve->is_string()) {
    cfg.curve = curve->as_string();
  } else {
    cfg.curve = default_curve(cfg.latency, cfg.pipeline_ii, cfg.solve_min_ii);
  }
  *out = std::move(cfg);
  return true;
}

/// Expands the product-grid form. Order is latency-major, then II, then
/// tclk, so points that differ only in tclk are CONSECUTIVE — the shape
/// the cross-config trace cache seeds best (docs/SERVE.md).
bool expand_grid(const JsonValue& grid, sched::BackendKind backend,
                 std::vector<core::ExploreConfig>* out, std::string* error) {
  if (!grid.is_object()) {
    *error = "\"grid\" must be an object";
    return false;
  }
  auto numbers = [&](const char* key, bool required,
                     std::vector<double>* vals) {
    const JsonValue* a = grid.find(key);
    if (a == nullptr) {
      if (required) *error = strf("\"grid\" needs an array \"", key, "\"");
      return !required;
    }
    if (!a->is_array() || a->size() == 0) {
      *error = strf("\"grid.", key, "\" must be a non-empty array");
      return false;
    }
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (!a->at(i).is_number()) {
        *error = strf("\"grid.", key, "\" must hold numbers");
        return false;
      }
      vals->push_back(a->at(i).as_number());
    }
    return true;
  };
  std::vector<double> tclks, latencies, iis;
  if (!numbers("tclk_ps", true, &tclks)) return false;
  if (!numbers("latency", true, &latencies)) return false;
  // The II axis additionally accepts the string "min" (solve for the
  // minimum feasible II at that grid point), carried as a -1 marker.
  if (const JsonValue* a = grid.find("ii"); a != nullptr) {
    if (!a->is_array() || a->size() == 0) {
      *error = "\"grid.ii\" must be a non-empty array";
      return false;
    }
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (a->at(i).is_string() && a->at(i).as_string() == "min") {
        iis.push_back(-1);
      } else if (a->at(i).is_number() && a->at(i).as_int() >= 0) {
        iis.push_back(a->at(i).as_number());
      } else {
        *error = "\"grid.ii\" must hold non-negative numbers or \"min\"";
        return false;
      }
    }
  }
  if (iis.empty()) iis.push_back(0);
  if (const JsonValue* b = grid.find("backend"); b != nullptr) {
    if (!b->is_string() || !backend_from_name(b->as_string(), &backend)) {
      *error = "\"grid.backend\" must be \"list\", \"sdc\" or \"auto\"";
      return false;
    }
  }
  for (double latency : latencies) {
    for (double ii : iis) {
      for (double tclk : tclks) {
        core::ExploreConfig cfg;
        if (!(tclk > 0) || latency < 1) {
          *error = "grid values must be positive (ii may be 0)";
          return false;
        }
        cfg.tclk_ps = tclk;
        cfg.latency = static_cast<int>(latency);
        cfg.solve_min_ii = ii < 0;  // the "min" marker
        cfg.pipeline_ii = ii < 0 ? 0 : static_cast<int>(ii);
        cfg.backend = backend;
        cfg.curve =
            default_curve(cfg.latency, cfg.pipeline_ii, cfg.solve_min_ii);
        out->push_back(std::move(cfg));
      }
    }
  }
  return true;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fir16", "ewf",    "arf",     "crc32",      "fft8_stage",
      "dct8",  "idct8",  "conv3x3", "sobel",      "banked_fir",
      "transpose4",      "stencil_row",           "random",
  };
  return names;
}

std::string spec_key(const JobRequest& job) {
  if (!job.source.empty()) return strf("source:", job.source);
  if (job.workload == "random") {
    return strf("random:", job.random_seed, ":", job.random_ops);
  }
  return strf("workload:", job.workload);
}

bool resolve_workload(const JobRequest& job, workloads::Workload* out,
                      std::string* error) {
  if (!job.source.empty()) {
    DiagEngine diags;
    frontend::ParseResult parsed = frontend::parse_module(job.source, diags);
    if (!parsed.ok) {
      std::string message = "inline source failed to parse";
      for (const Diagnostic& d : diags.diagnostics()) {
        if (d.severity == Severity::kError) {
          message = d.to_string();
          break;
        }
      }
      *error = message;
      return false;
    }
    if (parsed.loops.empty()) {
      *error = "inline source has no schedulable loop";
      return false;
    }
    workloads::Workload w;
    w.name = parsed.module.name;
    w.module = std::move(parsed.module);
    w.loop = parsed.loops.front();
    *out = std::move(w);
    return true;
  }
  const std::string& name = job.workload;
  if (name == "fir16") {
    *out = workloads::make_fir(16);
  } else if (name == "ewf") {
    *out = workloads::make_ewf();
  } else if (name == "arf") {
    *out = workloads::make_arf();
  } else if (name == "crc32") {
    *out = workloads::make_crc32();
  } else if (name == "fft8_stage") {
    *out = workloads::make_fft8_stage();
  } else if (name == "dct8") {
    *out = workloads::make_dct8();
  } else if (name == "idct8") {
    *out = workloads::make_idct8();
  } else if (name == "conv3x3") {
    *out = workloads::make_conv3x3();
  } else if (name == "sobel") {
    *out = workloads::make_sobel();
  } else if (name == "banked_fir") {
    *out = workloads::make_banked_fir();
  } else if (name == "transpose4") {
    *out = workloads::make_transpose4();
  } else if (name == "stencil_row") {
    *out = workloads::make_stencil_row();
  } else if (name == "random") {
    workloads::RandomCdfgOptions opts;
    opts.target_ops = job.random_ops;
    *out = workloads::make_random_cdfg(job.random_seed, opts);
  } else {
    std::string known;
    for (const std::string& n : workload_names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    *error = strf("unknown workload \"", name, "\" (known: ", known, ")");
    return false;
  }
  return true;
}

bool parse_job(const JsonValue& v, JobRequest* out, std::string* error) {
  if (!v.is_object()) {
    *error = "job must be an object";
    return false;
  }
  JobRequest job;
  const JsonValue* id = v.find("id");
  if (id == nullptr || !id->is_number() || id->as_int() < 0) {
    *error = "job needs a non-negative numeric \"id\"";
    return false;
  }
  job.id = id->as_int();
  if (const JsonValue* w = v.find("workload"); w != nullptr) {
    if (!w->is_string()) {
      *error = "\"workload\" must be a string";
      return false;
    }
    job.workload = w->as_string();
  }
  if (const JsonValue* s = v.find("source"); s != nullptr) {
    if (!s->is_string()) {
      *error = "\"source\" must be a string";
      return false;
    }
    job.source = s->as_string();
  }
  if (job.workload.empty() == job.source.empty()) {
    *error = "job needs exactly one of \"workload\" or \"source\"";
    return false;
  }
  if (const JsonValue* s = v.find("random_seed"); s != nullptr) {
    if (!s->is_number()) {
      *error = "\"random_seed\" must be a number";
      return false;
    }
    job.random_seed = static_cast<std::uint64_t>(s->as_int());
  }
  if (const JsonValue* n = v.find("random_ops"); n != nullptr) {
    if (!n->is_number() || n->as_int() <= 0) {
      *error = "\"random_ops\" must be a positive number";
      return false;
    }
    job.random_ops = static_cast<int>(n->as_int());
  }
  sched::BackendKind backend = sched::BackendKind::kList;
  if (const JsonValue* b = v.find("backend"); b != nullptr) {
    if (!b->is_string() || !backend_from_name(b->as_string(), &backend)) {
      *error = "\"backend\" must be \"list\", \"sdc\" or \"auto\"";
      return false;
    }
  }
  if (const JsonValue* b = v.find("budget"); b != nullptr) {
    if (!b->is_object()) {
      *error = "\"budget\" must be an object";
      return false;
    }
    auto limit = [&](const char* key, std::int64_t* out_limit) {
      const JsonValue* n = b->find(key);
      if (n == nullptr) return true;
      if (!n->is_number() || n->as_int() < 0) {
        *error = strf("\"budget.", key, "\" must be a non-negative number");
        return false;
      }
      *out_limit = n->as_int();
      return true;
    };
    if (!limit("passes", &job.budget.max_passes)) return false;
    if (!limit("commits", &job.budget.max_commits)) return false;
    if (!limit("relax_steps", &job.budget.max_relax_steps)) return false;
  }
  if (const JsonValue* d = v.find("deadline_ms"); d != nullptr) {
    if (!d->is_number() || d->as_number() < 0) {
      *error = "\"deadline_ms\" must be a non-negative number";
      return false;
    }
    job.budget.deadline_seconds = d->as_number() / 1000.0;
  }
  if (const JsonValue* grid = v.find("grid"); grid != nullptr) {
    if (!expand_grid(*grid, backend, &job.points, error)) return false;
  }
  if (const JsonValue* pts = v.find("points"); pts != nullptr) {
    if (!pts->is_array()) {
      *error = "\"points\" must be an array";
      return false;
    }
    for (std::size_t i = 0; i < pts->size(); ++i) {
      core::ExploreConfig cfg;
      if (!parse_point(pts->at(i), backend, &cfg, error)) {
        *error = strf("points[", i, "]: ", *error);
        return false;
      }
      job.points.push_back(std::move(cfg));
    }
  }
  if (job.points.empty()) {
    *error = "job has no configurations (\"points\" and \"grid\" both empty)";
    return false;
  }
  if (!job.budget.unlimited()) {
    for (core::ExploreConfig& cfg : job.points) cfg.budget = job.budget;
  }
  *out = std::move(job);
  return true;
}

bool parse_jobs(std::string_view text, std::vector<JobRequest>* out,
                std::vector<std::string>* errors) {
  JsonValue doc;
  std::string parse_error;
  if (!parse_json(text, &doc, &parse_error)) {
    if (errors != nullptr) {
      errors->push_back(strf("invalid JSON: ", parse_error));
    }
    return false;
  }
  const JsonValue* list = &doc;
  if (doc.is_object()) {
    const JsonValue* jobs = doc.find("jobs");
    if (jobs != nullptr && jobs->is_array()) {
      list = jobs;
    } else {
      // A single job object.
      JobRequest job;
      std::string error;
      if (parse_job(doc, &job, &error)) {
        out->push_back(std::move(job));
      } else if (errors != nullptr) {
        errors->push_back(std::move(error));
      }
      return true;
    }
  }
  if (!list->is_array()) {
    if (errors != nullptr) {
      errors->push_back("job document must be an object or array");
    }
    return false;
  }
  for (std::size_t i = 0; i < list->size(); ++i) {
    JobRequest job;
    std::string error;
    if (parse_job(list->at(i), &job, &error)) {
      out->push_back(std::move(job));
    } else if (errors != nullptr) {
      errors->push_back(strf("jobs[", i, "]: ", error));
    }
  }
  return true;
}

}  // namespace hls::serve
