// serve: one closed-loop client against an in-process serve::Server with 2
// worker threads and default caps and cache sizes. The client sends a
// seeded sequence of job documents (1-3 jobs each), each only after the
// previous one's last line came back. The design working set is 24 designs
// (12 bundled kernels, 6 random CDFGs of 100-600 ops, 6 generated DSL
// sources, all from a fixed seed), three times the 8-entry session cache. A
// job is a 4-clock ladder starting at 700-2300 ps x 1 latency x II {0},
// {1,2}, {min} or {0,4}, on list, sdc or auto; 30% of jobs resubmit one of
// the client's last 8 jobs exactly. JobStream says how the stream is drawn.
#include <algorithm>
#include <deque>
#include <random>

#include "bench.hpp"
#include "build_info.hpp"
#include "frontend/parser.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

namespace perfbench {
namespace {

using namespace hls;

constexpr int kLatencies[] = {4, 6, 8, 12, 16, 24, 32};
const std::vector<std::vector<int>> kIiSets = {{0}, {1, 2}, {-1}, {0, 4}};  // -1 = "min"
constexpr const char* kBackends[] = {"list", "sdc", "auto"};
constexpr std::int64_t kRecentJobs = 8;
constexpr int kRerunSample = 24;
constexpr std::uint64_t kDesignSeed = 40508;
constexpr std::uint64_t kJobSeed = 90210;
constexpr std::size_t kEpochDocuments = 480;  ///< one unit: see JobStream

/// One design of the client's working set.
struct ServedDesign {
  std::string name;
  std::string json;  ///< the job fields naming the design
  serve::JobRequest request;  ///< the same design as a JobRequest
  int ops = 0;
};

struct Job {
  std::int64_t id = 0;
  std::int64_t original = -1;  ///< for a resubmission, the id it repeats
  std::size_t design = 0;
  std::string backend;
  int latency = 0;
  std::vector<double> tclks;
  std::vector<int> iis;
  /// The job's points in the server's grid expansion order (II, then tclk).
  std::vector<core::ExploreConfig> points() const {
    std::vector<core::ExploreConfig> out;
    for (int ii : iis) {
      for (double tclk : tclks) {
        core::ExploreConfig cfg;
        cfg.tclk_ps = tclk;
        cfg.latency = latency;
        cfg.solve_min_ii = ii < 0;
        cfg.pipeline_ii = ii < 0 ? 0 : ii;
        cfg.backend = backend == "sdc"    ? sched::BackendKind::kSdc
                      : backend == "auto" ? sched::BackendKind::kAuto
                                          : sched::BackendKind::kList;
        out.push_back(cfg);
      }
    }
    return out;
  }
};

struct Document {
  std::vector<Job> jobs;
  std::string text;
  double submitted = 0;  ///< seconds since the phase started
  std::size_t first_line = 0;
  std::size_t end_line = 0;
};

/// One line of the server's output stream, parsed as it arrives (the
/// client's work), so that the harness keeps a few dozen bytes per line
/// instead of the text and its memory stays out of peak_rss_mb.
struct Line {
  enum class Kind : std::uint8_t { kPoint, kDone, kError, kMalformed };
  Kind kind = Kind::kMalformed;
  double at = 0;  ///< seconds since the phase started
  std::int64_t job = -1;
  std::int64_t index = -1;  ///< point index; for a done line, its point count
  bool feasible = false;
  int latency = 0;
  int passes = 0;
  double tclk_ps = 0;
  double area = 0;
  double delay_ns = 0;
  std::string failure;  ///< failure code of an infeasible point
  std::string text;     ///< kept for error and malformed lines only
};

Line parse_line(const std::string& text, double at) {
  Line line;
  line.at = at;
  JsonValue v;
  std::string error;
  if (!parse_json(text, &v, &error) || !v.is_object()) {
    line.text = text;
    return line;
  }
  if (v.find("error") != nullptr) {
    line.kind = Line::Kind::kError;
    line.text = text;
    return line;
  }
  const JsonValue* job = v.find("job");
  if (job == nullptr || !job->is_number()) {
    line.text = text;
    return line;
  }
  line.job = job->as_int();
  auto number = [&v](const char* key) {
    const JsonValue* n = v.find(key);
    return n != nullptr && n->is_number() ? n->as_number() : -1.0;
  };
  if (v.find("done") != nullptr) {
    line.kind = Line::Kind::kDone;
    line.index = static_cast<std::int64_t>(number("points"));
    return line;
  }
  line.kind = Line::Kind::kPoint;
  line.index = static_cast<std::int64_t>(number("point"));
  line.tclk_ps = number("tclk_ps");
  line.latency = static_cast<int>(number("latency"));
  line.passes = static_cast<int>(number("passes"));
  const JsonValue* feasible = v.find("feasible");
  line.feasible = feasible != nullptr && feasible->as_bool();
  if (line.feasible) {
    line.area = number("area");
    line.delay_ns = number("delay_ns");
  } else {
    const JsonValue* failure = v.find("failure");
    line.failure = failure_code(failure != nullptr ? failure->as_string() : "");
  }
  return line;
}

/// `text` with the build's source root removed from any source path in it.
std::string without_source_root(std::string text) {
  const std::string_view root = build::kSourceRoot;
  for (std::size_t at = text.find(root); at != std::string::npos; at = text.find(root, at)) {
    text.erase(at, root.size());
  }
  return text;
}

/// A seeded straight-line DSL kernel: `statements` integer operations over
/// four input streams inside a forever loop, with a loop-carried
/// accumulator updated under a data-dependent condition.
std::string generate_dsl(std::mt19937_64& rng, int index, int statements) {
  static const char* const kOps[] = {"+", "-", "*", "^", "&", "|", "+", "-"};
  std::string s = "module gen" + std::to_string(index) +
                  " {\n  in a: i16;\n  in b: i16;\n  in c: i16;\n  in d: i16;\n"
                  "  out y: i32;\n  out z: i32;\n  thread {\n    var acc: i32 = 0;\n"
                  "    forever {\n";
  std::vector<std::string> values = {"a", "b", "c", "d"};
  for (int k = 0; k < statements; ++k) {
    const std::size_t n = values.size();
    // Prefer recent values so the DAG grows deep as well as wide.
    std::uniform_int_distribution<std::size_t> recent(n > 6 ? n - 6 : 0, n - 1);
    std::uniform_int_distribution<std::size_t> any(0, n - 1);
    std::uniform_int_distribution<int> op(0, std::size(kOps) - 1);
    const std::string lhs = values[recent(rng)];
    const std::string rhs = values[any(rng)];
    const std::string name = "t" + std::to_string(k);
    s += "      var " + name + ": i32 = " + lhs + " " + kOps[op(rng)] + " " + rhs + ";\n";
    values.push_back(name);
  }
  const std::string& last = values.back();
  const std::string& mid = values[values.size() / 2];
  s += "      if (" + last + " > " + mid + ") { acc = acc + " + last + "; } else { acc = acc - " +
       mid + "; }\n";
  s += "      y = acc;\n      z = " + last + " ^ " + mid + ";\n    }\n  }\n}\n";
  return s;
}

class Serve final : public Workload {
 public:
  explicit Serve(const Options& options) : options_(options) {}

  // Set-up is short, so it repeats until the set-ups span a quarter second
  // or more: the median of a shorter stretch moves with a shared machine's
  // slow spells.
  int setup_repeats() const override { return 201; }
  // 3 epochs of 960 jobs leave 28 job latencies beyond p99; 2 epochs leave
  // 19, and their p99 moves more between seeds.
  double tail_percentile() const override { return 99; }
  int min_units() const override { return 3; }

  double setup() override {
    // Set-up is building the client's working set (the workload builders
    // and the front end) plus constructing the Server. The Server alone
    // takes about 10 ns, too little to time steadily on a shared machine.
    const Clock::time_point t0 = Clock::now();
    prepare_designs();
    server_ = std::make_unique<serve::Server>(server_options());
    const double elapsed = seconds_between(t0, Clock::now());
    server_.reset();
    return elapsed;
  }

  Phase run(double seconds, int max_units) override {
    Phase phase;
    server_ = std::make_unique<serve::Server>(server_options());
    docs_.clear();
    lines_.clear();
    JobStream stream(options_.seed * 2654435761ULL + 11, designs_.size());
    const Clock::time_point start = Clock::now();
    for (;;) {
      Document doc = next_document(stream);
      Scope span("harness", "document", static_cast<std::int64_t>(docs_.size()));
      doc.first_line = lines_.size();
      doc.submitted = seconds_between(start, Clock::now());
      std::vector<std::string> errors;
      {
        Scope s("serve", "submit_text");
        server_->submit_text(doc.text, &errors);
      }
      for (const std::string& e : errors) {
        Line line;
        line.kind = Line::Kind::kError;
        line.at = doc.submitted;
        line.text = "submit_text rejected a job: " + e;
        lines_.push_back(std::move(line));
      }
      const bool digested = docs_.size() < kEpochDocuments;
      {
        Scope s("serve", "drain");
        server_->drain([&](const std::string& text) {
          if (digested) phase.digest = fnv1a(without_source_root(text) + "\n", phase.digest);
          lines_.push_back(parse_line(text, seconds_between(start, Clock::now())));
        });
      }
      doc.end_line = lines_.size();
      doc.text.clear();
      doc.text.shrink_to_fit();
      docs_.push_back(std::move(doc));
      if (docs_.size() % kEpochDocuments != 0) continue;
      ++phase.units;
      if (finished(phase.units, seconds_between(start, Clock::now()), seconds, max_units)) break;
    }
    phase.elapsed_s = seconds_between(start, Clock::now());
    phase.peak_rss_mb = peak_rss_mb();
    stats_ = server_->stats();
    server_.reset();
    summarize(phase);
    return phase;
  }

  void check(const Phase& phase, Checks& checks) override {
    for (const std::string& problem : stream_problems_) checks.fail(problem);
    // Re-run a seeded sample of feasible points through the staged flow
    // API, compare field by field, then co-simulate. The server runs every
    // stage inside drain(), out of the harness's sight, so the stage layers
    // report 0 on serve; these re-runs are untraced and count in
    // check.busy_s only.
    const bool traced = tracer().enabled();
    tracer().set_enabled(false);
    std::vector<std::size_t> feasible;
    for (std::size_t i = 0; i < phase.points.size(); ++i) {
      if (phase.points[i].outcome == Outcome::kFeasible) feasible.push_back(i);
    }
    std::mt19937_64 rng(options_.seed + 17);
    std::shuffle(feasible.begin(), feasible.end(), rng);
    feasible.resize(std::min<std::size_t>(feasible.size(), kRerunSample));
    std::sort(feasible.begin(), feasible.end());
    std::map<std::size_t, Design> compiled;
    for (const std::size_t index : feasible) {
      const PointRef& ref = refs_[index];
      const ServedDesign& design = designs_[ref.design];
      try {
        auto it = compiled.find(ref.design);
        if (it == compiled.end()) it = compiled.emplace(ref.design, compile_design(build(design))).first;
        const Design& c = it->second;
        const core::FlowResult r = run_stages(*c.session, flow_options(ref.config), c.ops_out);
        ++checks.rerun_points;
        const Point& p = phase.points[index];
        if (!r.success || r.area.total() != p.area || r.delay_ns != p.delay_ns) {
          checks.fail("serve: job " + std::to_string(ref.job) + " point " +
                      std::to_string(ref.point) + " (" + design.name +
                      "): re-run differs from the served line");
          continue;
        }
        std::string why;
        ++checks.cosim_points;
        if (!cosimulate(c.original, r, options_.seed * 7919 + index, &why)) {
          checks.fail("serve: " + design.name + ": " + why);
        }
      } catch (const std::exception& e) {
        checks.fail("serve: " + design.name + ": re-run threw: " + e.what());
      }
    }
    tracer().set_enabled(traced);
  }

  void layer_metrics(std::map<std::string, double>& out) const override {
    const double points = static_cast<double>(std::max<std::uint64_t>(stats_.points, 1));
    const double sessions = static_cast<double>(stats_.sessions_compiled + stats_.session_cache_hits);
    out["serve.rounds"] = static_cast<double>(stats_.rounds);
    out["serve.sessions_compiled"] = static_cast<double>(stats_.sessions_compiled);
    out["serve.session_evictions"] = static_cast<double>(stats_.session_evictions);
    out["serve.session_hit_frac"] =
        sessions > 0 ? static_cast<double>(stats_.session_cache_hits) / sessions : 0.0;
    out["serve.trace_exact_hit_frac"] = static_cast<double>(stats_.trace_exact_hits) / points;
    out["serve.trace_neighbor_hit_frac"] = static_cast<double>(stats_.trace_neighbor_hits) / points;
    out["serve.passes_per_point"] = static_cast<double>(stats_.total_passes) / points;
  }

 private:
  /// Where a result line came from.
  struct PointRef {
    std::int64_t job = 0;
    std::size_t point = 0;
    std::size_t design = 0;
    core::ExploreConfig config;
  };

  serve::ServerOptions server_options() const {
    serve::ServerOptions o;
    o.threads = options_.variant == "threads1" ? 1 : 2;
    return o;
  }

  /// Builds a design's workload the way the server resolves it. This is the
  /// client's work, not the server's, so it records no layer spans.
  static workloads::Workload build(const ServedDesign& d) {
    workloads::Workload w;
    if (!d.request.source.empty()) {
      DiagEngine diags;
      frontend::ParseResult parsed = frontend::parse_module(d.request.source, diags);
      if (!parsed.ok || parsed.loops.empty()) {
        throw std::runtime_error(d.name + " does not parse: " + diags.to_string());
      }
      w.name = parsed.module.name;
      w.module = std::move(parsed.module);
      w.loop = parsed.loops.front();
      return w;
    }
    if (d.request.workload == "random") {
      workloads::RandomCdfgOptions opts;
      opts.target_ops = d.request.random_ops;
      return workloads::make_random_cdfg(d.request.random_seed, opts);
    }
    std::string error;
    if (!serve::resolve_workload(d.request, &w, &error)) throw std::runtime_error(error);
    return w;
  }

  /// The 24-design working set. It comes from a fixed seed, so every run
  /// serves the same designs. Every design is built once here to learn its
  /// op count and to make sure it resolves.
  void prepare_designs() {
    designs_.clear();
    std::mt19937_64 rng(kDesignSeed);
    for (const std::string& name : serve::workload_names()) {
      if (name == "random") continue;
      ServedDesign d;
      d.name = name;
      d.json = "\"workload\":\"" + name + "\"";
      d.request.workload = name;
      designs_.push_back(std::move(d));
    }
    for (int i = 0; i < 6; ++i) {
      ServedDesign d;
      d.request.workload = "random";
      d.request.random_seed = rng() % 1000000;
      d.request.random_ops = 100 * (i + 1);  // 100..600
      d.name = "random:" + std::to_string(d.request.random_seed) + ":" +
               std::to_string(d.request.random_ops);
      d.json = "\"workload\":\"random\",\"random_seed\":" +
               std::to_string(d.request.random_seed) +
               ",\"random_ops\":" + std::to_string(d.request.random_ops);
      designs_.push_back(std::move(d));
    }
    for (int i = 0; i < 6; ++i) {
      ServedDesign d;
      d.request.source = generate_dsl(rng, i, 16 + 8 * i);
      d.name = "gen" + std::to_string(i);
      d.json = "\"source\":\"" + JsonWriter::escape(d.request.source) + "\"";
      designs_.push_back(std::move(d));
    }
    for (ServedDesign& d : designs_) {
      workloads::Workload w = build(d);
      d.ops = w.op_count();
    }
  }

  /// The client's seeded job stream. Fresh jobs come in epochs of 672: a
  /// full factorial of the 24 designs x 4 II sets x 7 latencies, with
  /// backends and ladder starts balanced over the epoch, and 288 of the
  /// cells marked for resubmission: each is sent again, exactly, 1 to 8 jobs
  /// after its original, which makes 30% of all jobs resubmissions. The
  /// costliest 4% of jobs take half the time, so the backend, clock and mark
  /// of each cell come from a fixed seed, the same in every epoch, and
  /// --seed orders each epoch, spaces the resubmissions and orders the
  /// document sizes (1, 2, 3 jobs in turn). An epoch is 960 jobs in 480
  /// documents.
  class JobStream {
   public:
    JobStream(std::uint64_t seed, std::size_t designs) : rng_(seed), designs_(designs) {}

    Job next() {
      const std::int64_t id = next_id_++;
      auto due = pending_.find(id);
      if (due != pending_.end()) {
        Job job = std::move(due->second);
        pending_.erase(due);
        job.id = id;
        return job;
      }
      Job job = fresh();
      job.id = id;
      if (repeat_[static_cast<std::size_t>(cell_[slot_ - 1])]) {
        // Due 1 to 8 jobs later, at a slot no other resubmission holds.
        const std::int64_t start = std::uniform_int_distribution<std::int64_t>(0, kRecentJobs - 1)(rng_);
        for (std::int64_t k = 0; k < kRecentJobs; ++k) {
          const std::int64_t at = id + 1 + (start + k) % kRecentJobs;
          if (pending_.count(at) == 0) {
            Job again = job;
            again.original = id;
            pending_.emplace(at, std::move(again));
            break;
          }
        }
      }
      return job;
    }

    int document_size() {
      if (sizes_.empty()) {
        for (int s : balanced_levels(3, 3, rng_)) sizes_.push_back(s + 1);
      }
      const int n = sizes_.front();
      sizes_.pop_front();
      return n;
    }

   private:
    Job fresh() {
      const int latencies = std::size(kLatencies);
      const int iisets = static_cast<int>(kIiSets.size());
      const int epoch = static_cast<int>(designs_) * iisets * latencies;
      if (slot_ == cell_.size()) {
        slot_ = 0;
        cell_ = balanced_levels(epoch, epoch, rng_);
        std::mt19937_64 fixed(kJobSeed);
        backend_ = balanced_levels(epoch, std::size(kBackends), fixed);
        clock_ = balanced_levels(epoch, 17, fixed);  // ladder starts 700..2300 ps
        repeat_.clear();
        for (int r : balanced_levels(epoch, epoch, fixed)) repeat_.push_back(r < epoch * 3 / 7);
      }
      const int cell = cell_[slot_];
      Job job;
      job.design = static_cast<std::size_t>(cell / (iisets * latencies));
      job.iis = kIiSets[static_cast<std::size_t>(cell / latencies % iisets)];
      job.latency = kLatencies[cell % latencies];
      job.backend = kBackends[backend_[static_cast<std::size_t>(cell)]];
      const double first = 700.0 + 100.0 * clock_[static_cast<std::size_t>(cell)];
      for (int k = 0; k < 4; ++k) job.tclks.push_back(first + 100.0 * k);
      ++slot_;
      return job;
    }

    std::mt19937_64 rng_;
    std::size_t designs_;
    std::int64_t next_id_ = 0;
    std::map<std::int64_t, Job> pending_;  ///< scheduled resubmissions by due id
    std::deque<int> sizes_;
    std::size_t slot_ = 0;
    std::vector<int> cell_, backend_, clock_;
    std::vector<bool> repeat_;  ///< by cell
  };

  Document next_document(JobStream& stream) const {
    Document doc;
    const int jobs = stream.document_size();
    std::string text = "{\"jobs\":[";
    for (int j = 0; j < jobs; ++j) {
      Job job = stream.next();
      std::string tclks, iis;
      for (double t : job.tclks) {
        if (!tclks.empty()) tclks += ',';
        tclks += std::to_string(static_cast<int>(t));
      }
      for (int ii : job.iis) {
        if (!iis.empty()) iis += ',';
        iis += ii < 0 ? std::string("\"min\"") : std::to_string(ii);
      }
      text += (j == 0 ? "" : ",");
      text += "{\"id\":" + std::to_string(job.id) + "," + designs_[job.design].json +
              ",\"backend\":\"" + job.backend + "\",\"grid\":{\"tclk_ps\":[" + tclks +
              "],\"latency\":[" + std::to_string(job.latency) + "],\"ii\":[" + iis + "]}}";
      doc.jobs.push_back(std::move(job));
    }
    doc.text = text + "]}";
    return doc;
  }

  /// Parses the recorded stream into points and job latencies, checks its
  /// shape, and computes the digest. Runs after the timed phase.
  void summarize(Phase& phase) {
    refs_.clear();
    job_points_.clear();
    stream_problems_.clear();
    std::int64_t request = 0;
    std::vector<std::size_t> points_per_doc;
    for (std::size_t di = 0; di < docs_.size(); ++di) {
      const Document& doc = docs_[di];
      const std::size_t points_before = phase.points.size();
      std::map<std::int64_t, std::size_t> job_index;
      std::vector<std::vector<core::ExploreConfig>> expected;
      std::vector<std::size_t> seen;
      std::vector<bool> done;
      std::vector<bool> started;
      for (std::size_t j = 0; j < doc.jobs.size(); ++j) {
        job_index[doc.jobs[j].id] = j;
        expected.push_back(doc.jobs[j].points());
        seen.push_back(0);
        done.push_back(false);
        started.push_back(false);
      }
      // Design index -> id of the last job on it that started streaming. The
      // server keeps at most one job per design in flight and admits in id
      // order, so jobs on one design must not overlap and must go in id order.
      std::map<std::size_t, std::int64_t> last_on_design;
      auto problem = [&](const std::string& what) {
        stream_problems_.push_back("serve: document " + std::to_string(di) + ": " + what);
      };
      auto error_point = [&](const std::string& code) {
        Point p;
        p.outcome = Outcome::kError;
        p.code = code;
        p.request = request++;
        phase.points.push_back(std::move(p));
        refs_.emplace_back();
      };
      for (std::size_t li = doc.first_line; li < doc.end_line; ++li) {
        const Line& line = lines_[li];
        if (line.kind == Line::Kind::kMalformed) {
          problem("malformed line: " + line.text);
          error_point("malformed");
          continue;
        }
        if (line.kind == Line::Kind::kError) {
          problem("error line: " + line.text);
          error_point("serve error");
          continue;
        }
        auto it = job_index.find(line.job);
        if (it == job_index.end()) {
          problem("line for an unknown job " + std::to_string(line.job));
          error_point("malformed");
          continue;
        }
        const std::size_t j = it->second;
        const Job& job = doc.jobs[j];
        if (!started[j]) {
          auto last = last_on_design.find(job.design);
          if (last != last_on_design.end()) {
            const std::size_t before = job_index[last->second];
            if (last->second > job.id || !done[before]) {
              problem("job " + std::to_string(job.id) + " overlaps or precedes job " +
                      std::to_string(last->second) + " on the same design");
            }
          }
          last_on_design[job.design] = job.id;
          started[j] = true;
        }
        if (line.kind == Line::Kind::kDone) {
          if (done[j] || seen[j] != expected[j].size() ||
              line.index != static_cast<std::int64_t>(seen[j])) {
            problem("bad done line for job " + std::to_string(job.id));
          }
          done[j] = true;
          phase.latencies.push_back(line.at - doc.submitted);
          continue;
        }
        if (done[j] || line.index != static_cast<std::int64_t>(seen[j]) ||
            seen[j] >= expected[j].size()) {
          problem("point out of order for job " + std::to_string(job.id));
          error_point("malformed");
          continue;
        }
        const core::ExploreConfig& cfg = expected[j][seen[j]];
        if (line.tclk_ps != cfg.tclk_ps || line.latency != cfg.latency) {
          problem("point " + std::to_string(seen[j]) + " of job " + std::to_string(job.id) +
                  " echoes the wrong configuration");
        }
        Point p;
        p.ops = designs_[job.design].ops;
        p.passes = line.passes;
        if (line.feasible) {
          p.outcome = Outcome::kFeasible;
          p.area = line.area;
          p.delay_ns = line.delay_ns;
          p.ii = static_cast<int>(p.delay_ns * 1000.0 / cfg.tclk_ps + 0.5);
        } else {
          p.outcome = classify_failure(line.failure);
          p.code = line.failure;
        }
        p.request = request++;
        p.repeat = job.original >= 0;
        if (p.repeat) {
          // A resubmission must reproduce its original point for point
          // (exact-config replay may take fewer passes).
          auto orig = job_points_.find(job.original);
          if (orig != job_points_.end() && seen[j] < orig->second.size()) {
            const Point& o = phase.points[orig->second[seen[j]]];
            if (o.outcome != p.outcome || o.area != p.area || o.delay_ns != p.delay_ns ||
                o.code != p.code) {
              problem("job " + std::to_string(job.id) + " point " + std::to_string(seen[j]) +
                      " differs from job " + std::to_string(job.original) + " it resubmits");
            }
          }
        } else {
          job_points_[job.id].push_back(phase.points.size());
        }
        phase.points.push_back(std::move(p));
        refs_.push_back({job.id, seen[j], job.design, cfg});
        ++seen[j];
      }
      for (std::size_t j = 0; j < doc.jobs.size(); ++j) {
        if (!done[j]) problem("job " + std::to_string(doc.jobs[j].id) + " has no done line");
      }
      points_per_doc.push_back(phase.points.size() - points_before);
    }
    // Throughput per epoch.
    for (std::size_t first = 0; first < docs_.size(); first += kEpochDocuments) {
      const std::size_t last = std::min(first + kEpochDocuments, docs_.size());
      std::size_t line_points = 0;
      for (std::size_t d = first; d < last; ++d) line_points += points_per_doc[d];
      const double begin = docs_[first].submitted;
      const double end = lines_.empty() ? begin : lines_[docs_[last - 1].end_line - 1].at;
      if (end > begin) phase.slice_rates.push_back(static_cast<double>(line_points) / (end - begin));
    }
    phase.digest_scope = "line stream of the first epoch (" + std::to_string(kEpochDocuments) +
                         " documents)";
  }

  Options options_;
  std::vector<ServedDesign> designs_;
  std::unique_ptr<serve::Server> server_;
  std::vector<Document> docs_;
  std::vector<Line> lines_;
  std::vector<PointRef> refs_;
  /// Indices in the phase's points of each fresh job's points.
  std::map<std::int64_t, std::vector<std::size_t>> job_points_;
  std::vector<std::string> stream_problems_;
  serve::ServeStats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& options) {
  return std::make_unique<Serve>(options);
}

}  // namespace perfbench
