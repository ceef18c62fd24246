// Recurrence A/B: list vs SDC wall-clock at three sizes on pipelined
// recurrence configurations (crc32, ~400 and ~1600 random ops). Pass
// counts are identical through the shared expert ladder, so each wall
// ratio is a per-pass ratio: the evidence behind kAuto's size limits
// (docs/SCHEDULER.md). Emits BENCH_recurrence.json; the committed record
// is bench/baseline_recurrence.json.
//
// Self-checking — the bench exits 1 unless both backends schedule every
// configuration with equal pass counts (a mismatch makes the A/B
// unusable).
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/explore.hpp"
#include "core/session.hpp"
#include "support/json.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hls;

struct RecurrenceAb {
  std::string workload;
  std::size_t ops = 0;
  double tclk_ps = 0;
  int pipeline_ii = 0;
  int list_passes = 0, sdc_passes = 0;
  double list_seconds = 0, sdc_seconds = 0;
  bool ok = false;
};

RecurrenceAb recurrence_ab(const char* name, workloads::Workload w,
                           double tclk, int ii) {
  core::FlowSession session(std::move(w));
  RecurrenceAb ab;
  ab.workload = name;
  ab.ops = session.module().thread.dfg.size();
  ab.tclk_ps = tclk;
  ab.pipeline_ii = ii;
  core::ExploreConfig cfg;
  cfg.curve = name;
  cfg.tclk_ps = tclk;
  cfg.pipeline_ii = ii;
  cfg.backend = sched::BackendKind::kList;
  auto list = core::explore(session, {cfg}, {});
  cfg.backend = sched::BackendKind::kSdc;
  auto sdc = core::explore(session, {cfg}, {});
  ab.list_passes = list[0].passes;
  ab.sdc_passes = sdc[0].passes;
  ab.list_seconds = list[0].sched_seconds;
  ab.sdc_seconds = sdc[0].sched_seconds;
  // Identical pass counts are what make the wall ratio a per-pass
  // ratio; a mismatch makes the A/B unusable.
  ab.ok = list[0].feasible && sdc[0].feasible &&
          ab.list_passes == ab.sdc_passes;
  if (!ab.ok) {
    std::fprintf(stderr,
                 "FAIL: recurrence A/B %s (%zu ops) unusable: list "
                 "feasible=%d passes=%d, sdc feasible=%d passes=%d\n",
                 name, ab.ops, list[0].feasible, ab.list_passes,
                 sdc[0].feasible, ab.sdc_passes);
  }
  return ab;
}

}  // namespace

int main() {
  std::vector<RecurrenceAb> rec;
  rec.push_back(recurrence_ab("crc32", workloads::make_crc32(), 1450, 2));
  {
    workloads::RandomCdfgOptions gen;
    gen.target_ops = 1200;
    gen.inputs = 6;
    rec.push_back(recurrence_ab(
        "random:400", workloads::make_random_cdfg(777, gen), 1850, 8));
  }
  {
    workloads::RandomCdfgOptions gen;
    gen.target_ops = 4800;
    gen.inputs = 10;
    rec.push_back(recurrence_ab(
        "random:1600", workloads::make_random_cdfg(1600, gen), 1900, 8));
  }
  bool ok = true;
  for (const auto& ab : rec) {
    std::printf("recurrence A/B %-12s %4zu ops: %3d passes, list %.3fs, "
                "sdc %.3fs (rho %.3f)\n",
                ab.workload.c_str(), ab.ops, ab.list_passes, ab.list_seconds,
                ab.sdc_seconds,
                ab.list_seconds > 0 ? ab.sdc_seconds / ab.list_seconds : 0.0);
    ok = ok && ab.ok;
  }

  JsonWriter w;
  w.begin_object();
  w.key("recurrence_ab");
  w.begin_array();
  for (const auto& ab : rec) {
    w.begin_object();
    w.key("workload"), w.value(ab.workload);
    w.key("ops"), w.value(static_cast<std::uint64_t>(ab.ops));
    w.key("tclk_ps"), w.value(ab.tclk_ps);
    w.key("pipeline_ii"), w.value(ab.pipeline_ii);
    w.key("list_passes"), w.value(ab.list_passes);
    w.key("sdc_passes"), w.value(ab.sdc_passes);
    w.key("list_seconds"), w.value(ab.list_seconds);
    w.key("sdc_seconds"), w.value(ab.sdc_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream("BENCH_recurrence.json") << w.str() << "\n";
  std::printf("wrote BENCH_recurrence.json\n");
  return ok ? 0 : 1;
}
