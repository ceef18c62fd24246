// Tests for src/core/: the end-to-end run_flow facade on Example 1 and
// the bundled kernels (sequential and pipelined), co-simulation against
// the interpreter, clean failure reporting, feature-switch ablations,
// design-space exploration sweeps, and report/JSON rendering.
#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

#include "core/explore.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "support/rng.hpp"
#include "workloads/example1.hpp"

namespace hls::core {
namespace {

workloads::Workload example1_workload() {
  workloads::Workload w;
  auto ex = workloads::make_example1();
  w.name = "example1";
  w.module = std::move(ex.module);
  w.loop = ex.loop;
  return w;
}

// ---- End-to-end flow -------------------------------------------------------------

TEST(Flow, Example1SequentialEndToEnd) {
  FlowOptions o;
  auto r = run_flow(example1_workload(), o);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.sched.schedule.num_steps, 3);
  EXPECT_GE(r.sched.schedule.worst_slack_ps, 0);
  EXPECT_FALSE(r.verilog.empty());
  EXPECT_GT(r.area.total(), 0);
  EXPECT_GT(r.power.total_mw(), 0);
  EXPECT_DOUBLE_EQ(r.delay_ns, 3 * 1.6);

  // The machine still simulates correctly after the full flow (including
  // the optimizer's rewrites).
  Rng rng(1);
  ir::Stimulus s;
  std::vector<std::int64_t> mask;
  std::vector<std::int64_t> chrome;
  std::vector<std::int64_t> scale;
  std::vector<std::int64_t> th;
  for (int i = 0; i < 16; ++i) {
    mask.push_back(rng.uniform(1, 100));
    chrome.push_back(rng.uniform(1, 100));
    scale.push_back(rng.uniform(-4, 4));
    th.push_back(rng.uniform(-100, 100));
  }
  s.set("mask", mask);
  s.set("chrome", chrome);
  s.set("scale", scale);
  s.set("th", th);
  const auto ref = ir::interpret(*r.module, s);
  const auto sim = rtl::simulate(r.machine, s);
  EXPECT_EQ(ir::writes_by_port(*r.module, ref.writes),
            ir::writes_by_port(*r.module, sim.writes));
}

TEST(Flow, WorkloadsScheduleSequentially) {
  for (auto make : {workloads::make_ewf, workloads::make_arf,
                    workloads::make_conv3x3, workloads::make_crc32}) {
    FlowOptions o;
    auto r = run_flow(make(), o);
    EXPECT_TRUE(r.success) << r.failure_reason;
    EXPECT_GE(r.sched.schedule.worst_slack_ps, 0);
  }
}

TEST(Flow, WorkloadsPipeline) {
  // FIR has a pure feed-forward delay line (no arithmetic recurrence), so
  // even II=1 is feasible.
  for (int ii : {1, 2}) {
    FlowOptions o;
    o.pipeline_ii = ii;
    auto r = run_flow(workloads::make_fir(8), o);
    EXPECT_TRUE(r.success) << "ii=" << ii << ": " << r.failure_reason;
    EXPECT_EQ(r.machine.loop.initiation_interval(), ii);
  }
}

TEST(Flow, RecurrenceBoundsTheFeasibleII) {
  // EWF's carried filter state forms a long arithmetic recurrence; II=1
  // cannot be met at this clock, and the flow reports a clean failure.
  FlowOptions o;
  o.pipeline_ii = 1;
  o.allow_accept_slack = false;
  auto r = run_flow(workloads::make_ewf(), o);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.failure_reason.empty());
  // A generous II covering the recurrence schedules fine.
  FlowOptions o8;
  o8.pipeline_ii = 12;
  auto r8 = run_flow(workloads::make_ewf(), o8);
  EXPECT_TRUE(r8.success) << r8.failure_reason;
}

TEST(Flow, MinIiSolveFindsTheRecurrenceBound) {
  // solve_min_ii walks the flow to the smallest feasible II instead of
  // demanding one up front. On EWF that lands within the recurrence
  // bound the fixed-II test above brackets (1 infeasible, 12 feasible).
  FlowOptions o;
  o.solve_min_ii = true;
  o.backend = sched::BackendKind::kSdc;  // constraint stats come from SDC
  auto r = run_flow(workloads::make_ewf(), o);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GT(r.sched.min_ii, 1);
  EXPECT_LE(r.sched.min_ii, 12);
  EXPECT_EQ(r.sched.schedule.pipeline.ii, r.sched.min_ii);
  // The solved II reaches the report surfaces.
  const std::string rep = render_report(r);
  EXPECT_NE(rep.find("minimum II solve"), std::string::npos);
  const std::string json = render_json(r);
  EXPECT_NE(json.find("\"min_ii\":" + std::to_string(r.sched.min_ii)),
            std::string::npos);
  EXPECT_NE(json.find("\"constraint_stats\""), std::string::npos);
}

TEST(Flow, Idct8BothMicroarchitectures) {
  FlowOptions seq;
  seq.latency_min = 8;
  seq.latency_max = 8;
  auto rs = run_flow(workloads::make_idct8(), seq);
  ASSERT_TRUE(rs.success) << rs.failure_reason;
  EXPECT_EQ(rs.sched.schedule.num_steps, 8);

  FlowOptions pipe;
  pipe.pipeline_ii = 8;
  pipe.latency_min = 16;
  pipe.latency_max = 16;
  auto rp = run_flow(workloads::make_idct8(), pipe);
  ASSERT_TRUE(rp.success) << rp.failure_reason;
  // Equal throughput (II=8 both ways); the pipelined one spreads work over
  // 16 states.
  EXPECT_EQ(rp.machine.loop.initiation_interval(), 8);
  EXPECT_EQ(rp.sched.schedule.num_steps, 16);
}

TEST(Flow, OptimizerShrinksTheDfg) {
  FlowOptions with;
  FlowOptions without;
  without.run_optimizer = false;
  auto r1 = run_flow(workloads::make_idct8(), with);
  auto r2 = run_flow(workloads::make_idct8(), without);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_LT(r1.module->thread.dfg.size(), r2.module->thread.dfg.size());
}

TEST(Flow, FailureIsReportedCleanly) {
  FlowOptions o;
  o.latency_min = 1;
  o.latency_max = 1;  // Example 1 cannot schedule in one state
  o.allow_accept_slack = false;
  auto r = run_flow(example1_workload(), o);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(Flow, AcceptSlackRescuesOverconstrainedLatency) {
  // With the last-resort relaxation allowed, the one-state schedule binds
  // with negative slack and synthesis pays recovery area.
  FlowOptions o;
  o.latency_min = 1;
  o.latency_max = 1;
  auto r = run_flow(example1_workload(), o);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_LT(r.sched.schedule.worst_slack_ps, 0);
  EXPECT_GT(r.area.timing_recovery, 0);
}

// ---- Reports -----------------------------------------------------------------------

TEST(Report, ContainsScheduleAndAreas) {
  FlowOptions o;
  auto r = run_flow(example1_workload(), o);
  ASSERT_TRUE(r.success);
  const std::string rep = render_report(r);
  EXPECT_NE(rep.find("Schedule (Table 2 format)"), std::string::npos);
  EXPECT_NE(rep.find("mul32"), std::string::npos);
  EXPECT_NE(rep.find("Area:"), std::string::npos);
  EXPECT_NE(rep.find("Power:"), std::string::npos);
  const std::string trace = render_trace(r.sched);
  EXPECT_NE(trace.find("pass 1"), std::string::npos);
  EXPECT_NE(trace.find("add-state"), std::string::npos);
  const std::string json = render_json(r);
  EXPECT_NE(json.find("\"success\":true"), std::string::npos);
  EXPECT_NE(json.find("\"li\":3"), std::string::npos);
}

// ---- Exploration (Figures 10-11 machinery) ----------------------------------------------

TEST(Explore, PaperGridHas25Configs) {
  const auto grid = idct_paper_grid();
  EXPECT_EQ(grid.size(), 25u);
}

TEST(Explore, CurvesTradeAreaForDelay) {
  // A small grid to keep the test fast: one sequential and one pipelined
  // micro-architecture at two clocks.
  std::vector<ExploreConfig> grid = {
      {"seq16", 1600, 16, 0},
      {"seq16", 2200, 16, 0},
      {"pipe32", 1600, 32, 16},
      {"pipe32", 2200, 32, 16},
  };
  const auto pts = explore([] { return workloads::make_idct8(); }, grid);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) {
    EXPECT_TRUE(p.feasible) << p.curve << " @ " << p.tclk_ps;
    EXPECT_GT(p.area, 0);
    EXPECT_GT(p.power_mw, 0);
  }
  // Same II: delay equals II x Tclk for both architectures.
  EXPECT_DOUBLE_EQ(pts[0].delay_ns, 16 * 1.6);
  EXPECT_DOUBLE_EQ(pts[2].delay_ns, 16 * 1.6);
  // Slower clock costs delay but not area (same architecture).
  EXPECT_GT(pts[1].delay_ns, pts[0].delay_ns);
}

TEST(Explore, InfeasibleClockReportedNotThrown) {
  std::vector<ExploreConfig> grid = {{"too-fast", 700, 16, 0}};
  const auto pts = explore([] { return workloads::make_idct8(); }, grid);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_FALSE(pts[0].feasible);
  EXPECT_EQ(pts[0].failure.rfind("[schedule/clock_too_short]", 0), 0u)
      << pts[0].failure;
}

// ---- Table 4 style ablation through the flow ---------------------------------------------

TEST(Ablation, DisablingMoveSccCostsRecoveryArea) {
  // A tight pipelined configuration where the SCC must move to meet
  // timing; with the action disabled the flow accepts negative slack and
  // pays recovery area (the paper's Table 4 mechanism).
  FlowOptions good;
  good.pipeline_ii = 1;
  auto r_good = run_flow(example1_workload(), good);
  ASSERT_TRUE(r_good.success) << r_good.failure_reason;
  EXPECT_GE(r_good.sched.schedule.worst_slack_ps, 0);

  FlowOptions bad = good;
  bad.enable_move_scc = false;
  auto r_bad = run_flow(example1_workload(), bad);
  ASSERT_TRUE(r_bad.success) << r_bad.failure_reason;
  EXPECT_LT(r_bad.sched.schedule.worst_slack_ps, 0);
  EXPECT_GT(r_bad.area.timing_recovery, 0);
  EXPECT_GT(r_bad.area.total(), r_good.area.total() * 0.95);
}

}  // namespace
}  // namespace hls::core
