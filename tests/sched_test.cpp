// Tests for src/sched/: the iterative scheduling driver on the paper's
// worked examples (Example 1 sequential / II=2 / II=1 with the expected
// Table 2 schedules), chaining under the clock constraint, multi-cycle
// units, predicate exclusivity, write ordering, randomized DAGs, and
// resolve_backend's kAuto rule with its two size limits.
#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

#include "frontend/builder.hpp"
#include "opt/pass.hpp"
#include "sched/backend.hpp"
#include "sched/driver.hpp"
#include "support/rng.hpp"
#include "tech/library.hpp"
#include "workloads/example1.hpp"

namespace hls::sched {
namespace {

using frontend::Builder;
using ir::int_ty;
using ir::OpId;
using tech::FuClass;

struct Prepared {
  ir::Module module;
  ir::LinearRegion region;
  ir::LatencyBound latency;
};

Prepared prepare_example1() {
  auto ex = workloads::make_example1();
  auto pred = opt::make_predicate_conversion();
  pred->run(ex.module);
  Prepared p;
  p.latency = ex.module.thread.tree.stmt(ex.loop).latency;
  p.region = ir::linearize(ex.module.thread.tree, ex.loop);
  p.module = std::move(ex.module);
  return p;
}

OpId find_op(const ir::Module& m, std::string_view name) {
  for (OpId id = 0; id < m.thread.dfg.size(); ++id) {
    if (m.thread.dfg.op(id).name == name) return id;
  }
  ADD_FAILURE() << "op not found: " << name;
  return ir::kNoOp;
}

int pool_count(const Schedule& s, FuClass cls) {
  for (const auto& p : s.resources.pools) {
    if (p.cls == cls) return p.count;
  }
  return 0;
}

// ---- The paper's Example 1 (sequential) ------------------------------------------

TEST(Example1Sequential, ReproducesTable2) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;  // Tclk=1600, artisan90
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.num_steps, 3);
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 1);

  auto step_of = [&](std::string_view name) {
    return r.schedule.placement[find_op(p.module, name)].step;
  };
  // Table 2: s1 = mul1, add, neq; s2 = mul2, gt, mux; s3 = mul3.
  EXPECT_EQ(step_of("mul1_op"), 0);
  EXPECT_EQ(step_of("add_op"), 0);
  EXPECT_EQ(step_of("neq_op"), 0);
  EXPECT_EQ(step_of("mul2_op"), 1);
  EXPECT_EQ(step_of("gt_op"), 1);
  EXPECT_EQ(step_of("aver_mux"), 1);
  EXPECT_EQ(step_of("mul3_op"), 2);
  EXPECT_EQ(step_of("pixel_write"), 2);
  // All three multiplications share the single multiplier.
  const auto& pl1 = r.schedule.placement[find_op(p.module, "mul1_op")];
  const auto& pl2 = r.schedule.placement[find_op(p.module, "mul2_op")];
  const auto& pl3 = r.schedule.placement[find_op(p.module, "mul3_op")];
  EXPECT_EQ(pl1.instance, pl2.instance);
  EXPECT_EQ(pl2.instance, pl3.instance);
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
}

TEST(Example1Sequential, RelaxationTraceMatchesThePaper) {
  // Latency 1 fails (mul2 has no resource, gt has -200ps slack); the expert
  // adds a state. Latency 2 fails (mul busy for mul3); adding a multiplier
  // would not help, so another state is added. Latency 3 succeeds.
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  ASSERT_EQ(r.passes, 3);
  EXPECT_EQ(r.history[0].num_steps, 1);
  EXPECT_FALSE(r.history[0].success);
  EXPECT_NE(r.history[0].action.find("add-state"), std::string::npos);
  // Pass 1 restraints: negative slack (gt, -200ps) and no-resource (mul2).
  bool found_slack = false;
  bool found_nores = false;
  for (const auto& s : r.history[0].restraints) {
    if (s.find("negative-slack") != std::string::npos &&
        s.find("gt_op") != std::string::npos &&
        s.find("-200") != std::string::npos) {
      found_slack = true;
    }
    if (s.find("no-resource") != std::string::npos &&
        s.find("mul2_op") != std::string::npos) {
      found_nores = true;
    }
  }
  EXPECT_TRUE(found_slack) << "missing gt -200ps restraint";
  EXPECT_TRUE(found_nores) << "missing mul2 no-resource restraint";

  EXPECT_EQ(r.history[1].num_steps, 2);
  EXPECT_FALSE(r.history[1].success);
  EXPECT_NE(r.history[1].action.find("add-state"), std::string::npos);
  bool mul3_busy = false;
  for (const auto& s : r.history[1].restraints) {
    if (s.find("no-resource") != std::string::npos &&
        s.find("mul3_op") != std::string::npos) {
      mul3_busy = true;
    }
  }
  EXPECT_TRUE(mul3_busy) << "missing mul3 busy restraint in pass 2";

  EXPECT_TRUE(r.history[2].success);
  EXPECT_EQ(r.history[2].num_steps, 3);
}

TEST(Example1Sequential, TableRenderingListsResources) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success);
  const std::string table = r.schedule.to_table(p.module.thread.dfg);
  EXPECT_NE(table.find("mul32"), std::string::npos);
  EXPECT_NE(table.find("s1"), std::string::npos);
  EXPECT_NE(table.find("mul3_op"), std::string::npos);
}

// ---- Example 2: pipelined II=2 ------------------------------------------------------

TEST(Example1PipelinedII2, TwoMultipliersTable2Schedule) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.pipeline = {true, 2};
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.num_steps, 3);  // LI = 3 (starts at II+1)
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 2);
  auto step_of = [&](std::string_view name) {
    return r.schedule.placement[find_op(p.module, name)].step;
  };
  // Same steps as Table 2 (the paper: "the schedule ... is applicable to
  // the pipelined case as well, changing only bindings").
  EXPECT_EQ(step_of("mul1_op"), 0);
  EXPECT_EQ(step_of("mul2_op"), 1);
  EXPECT_EQ(step_of("mul3_op"), 2);
  // mul1 and mul3 sit on equivalent edges (s1 ~ s3 mod II=2): they must
  // use different instances; mul1/mul2 share.
  const auto& pl1 = r.schedule.placement[find_op(p.module, "mul1_op")];
  const auto& pl2 = r.schedule.placement[find_op(p.module, "mul2_op")];
  const auto& pl3 = r.schedule.placement[find_op(p.module, "mul3_op")];
  EXPECT_EQ(pl1.instance, pl2.instance);
  EXPECT_NE(pl1.instance, pl3.instance);
}

// ---- Example 3: pipelined II=1 -------------------------------------------------------

TEST(Example1PipelinedII1, ThreeMultipliersSccMovedToS2) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.pipeline = {true, 1};
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.num_steps, 3);
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 3);
  // The novel relaxation must have fired.
  bool moved = false;
  for (const auto& h : r.history) {
    if (h.action.find("move-scc") != std::string::npos) moved = true;
  }
  EXPECT_TRUE(moved) << "expected the move-scc relaxation in the trace";
  // The whole aver SCC sits in one state (II=1) - state s2.
  auto step_of = [&](std::string_view name) {
    return r.schedule.placement[find_op(p.module, name)].step;
  };
  EXPECT_EQ(step_of("add_op"), 1);
  EXPECT_EQ(step_of("mul2_op"), 1);
  EXPECT_EQ(step_of("aver_mux"), 1);
  EXPECT_EQ(step_of("gt_op"), 1);
  EXPECT_EQ(step_of("aver_lmux"), 1);
  EXPECT_EQ(step_of("mul1_op"), 0);
  EXPECT_EQ(step_of("mul3_op"), 2);
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
}

TEST(Example1PipelinedII1, DisablingMoveSccAcceptsNegativeSlack) {
  // The Table 4 ablation: without the SCC move the schedule can only
  // complete by accepting negative slack, which logic synthesis must then
  // recover with area.
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.pipeline = {true, 1};
  opts.enable_move_scc = false;
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_LT(r.schedule.worst_slack_ps, 0);
  bool accepted = false;
  for (const auto& h : r.history) {
    if (h.action.find("accept-negative-slack") != std::string::npos) {
      accepted = true;
    }
  }
  EXPECT_TRUE(accepted);
}

// ---- Feature behaviour ------------------------------------------------------------

TEST(Chaining, DisablingChainingNeedsMoreStates) {
  Prepared p = prepare_example1();
  SchedulerOptions with;
  SchedulerOptions without;
  without.enable_chaining = false;
  without.max_passes = 64;
  auto pl = p.latency;
  pl.max = 16;  // allow the unchained schedule to stretch
  const auto r1 = schedule_region(p.module.thread.dfg, p.region, pl,
                                  p.module.ports.size(), with);
  const auto r2 = schedule_region(p.module.thread.dfg, p.region, pl,
                                  p.module.ports.size(), without);
  ASSERT_TRUE(r1.success) << r1.failure_reason;
  ASSERT_TRUE(r2.success) << r2.failure_reason;
  EXPECT_LT(r1.schedule.num_steps, r2.schedule.num_steps);
}

TEST(Clock, FasterClockNeedsMoreStates) {
  Prepared p = prepare_example1();
  auto lat = p.latency;
  lat.max = 12;
  SchedulerOptions slow;  // 1600
  SchedulerOptions fast;
  fast.tclk_ps = 1100;
  const auto r1 = schedule_region(p.module.thread.dfg, p.region, lat,
                                  p.module.ports.size(), slow);
  const auto r2 = schedule_region(p.module.thread.dfg, p.region, lat,
                                  p.module.ports.size(), fast);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success) << r2.failure_reason;
  EXPECT_GT(r2.schedule.num_steps, r1.schedule.num_steps);
}

TEST(Clock, InfeasibleClockReportsFailure) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.tclk_ps = 900;  // a 32-bit multiply alone cannot fit
  const auto fixed = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                     p.module.ports.size(), opts);
  EXPECT_FALSE(fixed.success);
  EXPECT_EQ(fixed.failure_code, "clock_too_short");
  EXPECT_NE(fixed.failure_reason.find("cannot fit in the clock period"),
            std::string::npos)
      << fixed.failure_reason;
  EXPECT_EQ(fixed.passes, 0);
  // The min-II path reports the same failure with the same text.
  opts.pipeline = {true, 1};
  opts.solve_min_ii = true;
  const auto min_ii = schedule_region(p.module.thread.dfg, p.region,
                                      p.latency, p.module.ports.size(), opts);
  EXPECT_FALSE(min_ii.success);
  EXPECT_EQ(min_ii.failure_code, "clock_too_short");
  EXPECT_EQ(min_ii.failure_reason, fixed.failure_reason);
}

// A seed that would replay in one pass must not rescue a run whose budget
// the cold solve exhausts: budgeted runs ignore their seed.
TEST(Seed, BudgetedRunIgnoresItsSeed) {
  Prepared p = prepare_example1();
  SchedulerOptions record;
  record.record_seed = true;
  const auto cold = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                    p.module.ports.size(), record);
  ASSERT_TRUE(cold.success) << cold.failure_reason;
  ASSERT_GT(cold.passes, 1);

  SchedulerOptions unbudgeted;
  unbudgeted.seed = &cold.seed_out;
  const auto replay = schedule_region(p.module.thread.dfg, p.region,
                                      p.latency, p.module.ports.size(),
                                      unbudgeted);
  ASSERT_TRUE(replay.success);
  EXPECT_EQ(replay.seed_use, SeedUse::kReplay);
  EXPECT_EQ(replay.passes, 1);

  for (const std::int64_t max_passes : {std::int64_t{1},
                                        std::int64_t{cold.passes}}) {
    SchedulerOptions budgeted;
    budgeted.budget.max_passes = max_passes;
    const auto unseeded = schedule_region(p.module.thread.dfg, p.region,
                                          p.latency, p.module.ports.size(),
                                          budgeted);
    budgeted.seed = &cold.seed_out;
    const auto seeded = schedule_region(p.module.thread.dfg, p.region,
                                        p.latency, p.module.ports.size(),
                                        budgeted);
    EXPECT_EQ(seeded.seed_use, SeedUse::kNone) << max_passes;
    EXPECT_EQ(seeded.success, unseeded.success) << max_passes;
    EXPECT_EQ(seeded.failure_code, unseeded.failure_code) << max_passes;
    EXPECT_EQ(seeded.passes, unseeded.passes) << max_passes;
    EXPECT_EQ(seeded.engine_commits, unseeded.engine_commits) << max_passes;
  }
}

TEST(WriteOrder, SamePortWritesKeepProgramOrder) {
  Builder b("worder");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto loop = b.begin_counted(4);
  auto x = b.read(in);
  b.write(out, x);
  b.write(out, b.add(x, b.c(1)));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 8);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 8},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  // Two writes to one port cannot land in the same state.
  const auto ws = m.thread.dfg;
  std::vector<int> steps;
  for (OpId id = 0; id < ws.size(); ++id) {
    if (ws.op(id).kind == ir::OpKind::kWrite) {
      steps.push_back(r.schedule.placement[id].step);
    }
  }
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_LT(steps[0], steps[1]);
}

TEST(MultiCycle, DividerOccupiesConsecutiveStates) {
  Builder b("divider");
  auto in = b.in("x", int_ty(32));
  auto in2 = b.in("d", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto loop = b.begin_counted(4);
  auto q = b.div(b.read(in), b.read(in2), "the_div");
  b.write(out, q);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 12);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 12},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const OpId div = find_op(m, "the_div");
  const int lat = tech::artisan90().fu_latency_cycles(FuClass::kDivider);
  // Result lands `lat` cycles after issue; the write follows it.
  EXPECT_GE(r.schedule.placement[div].step, lat);
  for (OpId id = 0; id < m.thread.dfg.size(); ++id) {
    if (m.thread.dfg.op(id).kind == ir::OpKind::kWrite) {
      EXPECT_GE(r.schedule.placement[id].step,
                r.schedule.placement[div].step);
    }
  }
}

TEST(Exclusivity, OppositeBranchesShareOneMultiplier) {
  Builder b("excl");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto v = b.var("v", int_ty(32));
  auto loop = b.begin_counted(4);
  auto x = b.read(in);
  b.begin_if(b.gt(x, b.c(0)));
  b.set(v, b.mul(x, b.c(3), "mul_then"));
  b.begin_else();
  b.set(v, b.mul(x, b.c(5), "mul_else"));
  b.end_if();
  b.write(out, b.get(v));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 4);
  auto m = b.finish();
  auto pred = opt::make_predicate_conversion();
  pred->run(m);
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 4},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 1);
  const auto& p1 = r.schedule.placement[find_op(m, "mul_then")];
  const auto& p2 = r.schedule.placement[find_op(m, "mul_else")];
  EXPECT_EQ(p1.step, p2.step);
  EXPECT_EQ(p1.instance, p2.instance);
}

// ---- Property sweep: random expression DAGs schedule and validate -------------------

class RandomDagSchedule : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagSchedule, SchedulesAndPassesInvariantChecks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Builder b("rand");
  auto in_a = b.in("a", int_ty(32));
  auto in_b = b.in("bb", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto loop = b.begin_counted(4);
  std::vector<frontend::Val> values{b.read(in_a), b.read(in_b)};
  const int n_ops = static_cast<int>(rng.uniform(4, 24));
  for (int i = 0; i < n_ops; ++i) {
    const auto x =
        values[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    const auto y =
        values[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    switch (rng.uniform(0, 3)) {
      case 0: values.push_back(b.add(x, y)); break;
      case 1: values.push_back(b.sub(x, y)); break;
      case 2: values.push_back(b.mul(x, y)); break;
      default: values.push_back(b.bxor(x, y)); break;
    }
  }
  b.write(out, values.back());
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 32},
                                 m.ports.size(), opts);
  // schedule_region runs check_schedule internally on success.
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSchedule, ::testing::Range(0, 12));

class RandomDagPipelined : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagPipelined, PipelinedSchedulesRespectEquivalentEdges) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  Builder b("randp");
  auto in_a = b.in("a", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto acc = b.var("acc", int_ty(32));
  b.set(acc, b.c(0));
  auto loop = b.begin_counted(16);
  std::vector<frontend::Val> values{b.read(in_a)};
  const int n_ops = static_cast<int>(rng.uniform(3, 10));
  for (int i = 0; i < n_ops; ++i) {
    const auto x =
        values[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    values.push_back(rng.chance(0.4) ? b.mul(x, x) : b.add(x, b.c(7)));
  }
  b.set(acc, b.add(b.get(acc), values.back()));
  b.write(out, b.get(acc));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 24);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  opts.pipeline = {true, static_cast<int>(rng.uniform(1, 3))};
  const auto r = schedule_region(m.thread.dfg, region, {1, 24},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
  EXPECT_GE(r.schedule.num_steps, opts.pipeline.ii + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagPipelined, ::testing::Range(0, 12));

// ---- resolve_backend: the kAuto rule ---------------------------------------

Problem shaped_problem(std::size_t ops, bool pipelined, std::size_t sccs) {
  Problem p;
  p.ops.resize(ops);
  p.pipeline.enabled = pipelined;
  p.sccs.resize(sccs);
  return p;
}

SchedulerOptions auto_options(bool warm_start) {
  SchedulerOptions o;
  o.backend = BackendKind::kAuto;
  o.warm_start = warm_start;
  return o;
}

// "Both rules": the warm-start and the cold size limit.
TEST(ResolveBackend, ExplicitChoicePassesThroughBothRules) {
  for (bool warm : {false, true}) {
    SchedulerOptions o = auto_options(warm);
    o.backend = BackendKind::kSdc;
    EXPECT_EQ(resolve_backend(shaped_problem(64, false, 0), o),
              BackendKind::kSdc);
    o.backend = BackendKind::kList;
    EXPECT_EQ(resolve_backend(shaped_problem(64, true, 2), o),
              BackendKind::kList);
  }
}

TEST(ResolveBackend, BothRulesKeepListForSequentialAndFeedForward) {
  for (bool warm : {false, true}) {
    const SchedulerOptions o = auto_options(warm);
    // Sequential, and pipelined-but-recurrence-free: SDC buys nothing.
    for (std::size_t ops : {std::size_t{1}, std::size_t{64}}) {
      EXPECT_EQ(resolve_backend(shaped_problem(ops, false, 0), o),
                BackendKind::kList)
          << "warm=" << warm;
      EXPECT_EQ(resolve_backend(shaped_problem(ops, false, 2), o),
                BackendKind::kList)
          << "warm=" << warm;
      EXPECT_EQ(resolve_backend(shaped_problem(ops, true, 0), o),
                BackendKind::kList)
          << "warm=" << warm;
    }
  }
}

TEST(ResolveBackend, ModelPrefersSdcOnWarmPipelinedRecurrences) {
  const SchedulerOptions o = auto_options(true);
  // Small and mid-size recurrence problems sit well inside the warm limit
  // (the crossover of the fitted model the rule replaced).
  EXPECT_EQ(resolve_backend(shaped_problem(64, true, 1), o),
            BackendKind::kSdc);
  EXPECT_EQ(resolve_backend(shaped_problem(400, true, 3), o),
            BackendKind::kSdc);
}

TEST(ResolveBackend, WarmLimitIs1165Ops) {
  const SchedulerOptions o = auto_options(true);
  EXPECT_EQ(kAutoSdcMaxOpsWarm, 1165u);
  EXPECT_EQ(resolve_backend(shaped_problem(1165, true, 1), o),
            BackendKind::kSdc);
  EXPECT_EQ(resolve_backend(shaped_problem(1166, true, 1), o),
            BackendKind::kList);
}

TEST(ResolveBackend, ColdLimitIs256Ops) {
  const SchedulerOptions o = auto_options(false);
  EXPECT_EQ(kAutoSdcMaxOpsCold, 256u);
  EXPECT_EQ(resolve_backend(shaped_problem(256, true, 3), o),
            BackendKind::kSdc);
  EXPECT_EQ(resolve_backend(shaped_problem(257, true, 3), o),
            BackendKind::kList);
}

}  // namespace
}  // namespace hls::sched
