#include "alloc/lifespan.hpp"

#include <algorithm>

#include "ir/analysis.hpp"
#include "support/diagnostics.hpp"

namespace hls::alloc {

using ir::Dfg;
using ir::kNoOp;
using ir::LinearRegion;
using ir::Op;
using ir::OpId;
using ir::OpKind;
using tech::FuClass;

namespace {

double optimistic_fu_delay(const Dfg& dfg, OpId id, const tech::Library& lib) {
  const FuClass c = tech::fu_class_for(dfg, id);
  if (c == FuClass::kNone) return 0;
  if (lib.fu_latency_cycles(c) > 0) return 0;  // multi-cycle: registered
  return lib.fu_delay_ps(c, tech::resource_width_for(dfg, id));
}

}  // namespace

std::string clock_too_short(const Dfg& dfg, const LinearRegion& region,
                            const tech::Library& lib, double tclk_ps) {
  const double usable = tclk_ps - lib.reg_clk_to_q_ps() - lib.reg_setup_ps();
  for (const auto& step : region.steps) {
    for (OpId id : step) {
      const double fu = optimistic_fu_delay(dfg, id, lib);
      if (fu <= usable) continue;
      return strf("operation '", dfg.op(id).name, "' (",
                  tech::fu_class_name(tech::fu_class_for(dfg, id)),
                  ") cannot fit in the clock period even alone: ", fu, " > ",
                  usable, " ps");
    }
  }
  return {};
}

LifespanResult compute_lifespans(const Dfg& dfg, const LinearRegion& region,
                                 int num_steps, const tech::Library& lib,
                                 double tclk_ps, bool anchor_io,
                                 const std::vector<int>* window_min,
                                 const std::vector<int>* window_max) {
  HLS_ASSERT(num_steps >= 1, "region needs at least one step");
  LifespanResult out;
  out.spans.assign(dfg.size(), OpSpan{});

  std::vector<int> home(dfg.size(), -1);
  for (int s = 0; s < region.num_steps(); ++s) {
    for (OpId id : region.steps[s]) {
      out.spans[id].in_region = true;
      home[id] = std::min(s, num_steps - 1);
    }
  }

  // Usable combinational window per cycle (optimistic: no sharing muxes).
  const double usable = tclk_ps - lib.reg_clk_to_q_ps() - lib.reg_setup_ps();
  const double launch = lib.reg_clk_to_q_ps();

  // Dependence model must mirror the scheduler's: predicate edges only
  // matter for no-speculate consumers (writes). Speculable ops execute
  // regardless of their predicate, so the predicate producer does not
  // constrain their life span.
  std::vector<std::vector<OpId>> deps(dfg.size());
  std::vector<std::vector<OpId>> users(dfg.size());
  for (OpId id = 0; id < dfg.size(); ++id) {
    const Op& o = dfg.op(id);
    auto& d = deps[id];
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == OpKind::kLoopMux && i == 1) continue;  // carried
      if (o.operands[i] != kNoOp) d.push_back(o.operands[i]);
    }
    if (o.pred != kNoOp && o.no_speculate) d.push_back(o.pred);
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
    for (OpId x : d) users[x].push_back(id);
  }
  const auto order = dfg.topo_order();

  // ---- ASAP: forward chain packing ----------------------------------------
  for (OpId id : order) {
    OpSpan& sp = out.spans[id];
    if (!sp.in_region) continue;
    const Op& o = dfg.op(id);
    const double fu = optimistic_fu_delay(dfg, id, lib);
    const FuClass cls = tech::fu_class_for(dfg, id);
    const int mc_latency =
        cls == FuClass::kNone ? 0 : lib.fu_latency_cycles(cls);

    int step = 0;
    double arr_in = launch;  // region inputs / carried values are registered
    for (OpId d : deps[id]) {
      if (!out.spans[d].in_region) continue;  // consts / outer values
      const OpSpan& ds = out.spans[d];
      const int d_result =
          ds.asap;  // multi-cycle result step already folded into asap below
      if (d_result > step) {
        step = d_result;
        arr_in = ds.asap_arrival_ps;
      } else if (d_result == step) {
        arr_in = std::max(arr_in, ds.asap_arrival_ps);
      }
    }
    if (mc_latency > 0) {
      // Operands must be registered: if anything chains into this step,
      // start one step later. Result is registered after mc_latency cycles.
      bool chained = false;
      for (OpId d : deps[id]) {
        if (out.spans[d].in_region && out.spans[d].asap == step &&
            out.spans[d].asap_arrival_ps > launch) {
          chained = true;
        }
      }
      if (chained) ++step;
      step += mc_latency;  // result step
      arr_in = launch;
      out.spans[id].asap = step;
      out.spans[id].asap_arrival_ps = launch;
    } else {
      double arr_out = arr_in + fu;
      if (arr_out + lib.reg_setup_ps() > tclk_ps) {
        // Cut the chain: register inputs, move to the next step.
        ++step;
        arr_out = launch + fu;
        HLS_ASSERT(fu <= usable, "operation '", o.name,
                   "' cannot fit in the clock period alone; callers reject ",
                   "such clocks with clock_too_short()");
      }
      sp.asap = step;
      sp.asap_arrival_ps = arr_out;
    }
    if (anchor_io && ir::is_io(o.kind) && home[id] >= 0) {
      sp.asap = std::max(sp.asap, home[id]);
      if (sp.asap != step) sp.asap_arrival_ps = launch + fu;
    }
    // Timing-window lower bound: the op may not start before wmin, and
    // because consumers read sp.asap the pin propagates downstream.
    if (window_min != nullptr && !window_min->empty() &&
        (*window_min)[id] >= 0) {
      const int wmin = std::min((*window_min)[id], num_steps - 1);
      if (wmin > sp.asap) {
        sp.asap = wmin;
        sp.asap_arrival_ps = launch + fu;
      }
    }
  }

  // ---- ALAP: mirrored backward chain packing --------------------------------
  // tail(op): combinational delay from the op's inputs to the next register
  // boundary below it; cuts_below: register stages strictly below the op.
  std::vector<double> tail(dfg.size(), 0);
  std::vector<int> cuts_below(dfg.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpId id = *it;
    OpSpan& sp = out.spans[id];
    if (!sp.in_region) continue;
    const Op& o = dfg.op(id);
    const double fu = optimistic_fu_delay(dfg, id, lib);
    const FuClass cls = tech::fu_class_for(dfg, id);
    const int mc_latency =
        cls == FuClass::kNone ? 0 : lib.fu_latency_cycles(cls);

    double max_tail = 0;
    int max_cuts = 0;
    for (OpId u : users[id]) {
      if (!out.spans[u].in_region) continue;
      // Skip the carried edge: it constrains across iterations, not within.
      if (dfg.op(u).kind == OpKind::kLoopMux &&
          dfg.op(u).operands[1] == id) {
        continue;
      }
      if (cuts_below[u] > max_cuts) {
        max_cuts = cuts_below[u];
        max_tail = tail[u];
      } else if (cuts_below[u] == max_cuts) {
        max_tail = std::max(max_tail, tail[u]);
      }
    }
    double t = max_tail + fu;
    int cuts = max_cuts;
    if (launch + t + lib.reg_setup_ps() > tclk_ps) {
      // The op cannot chain into its critical consumer: register boundary.
      ++cuts;
      t = fu;
    }
    if (mc_latency > 0) {
      cuts += mc_latency;
      t = 0;
    }
    // Timing-window upper bound, folded into the cut count *before* it is
    // stored so producers of the windowed op inherit the earlier deadline
    // (unlike the anchor_io clamp below, which is op-local by design: home
    // steps already order the whole timed region).
    if (window_max != nullptr && !window_max->empty() &&
        (*window_max)[id] >= 0) {
      const int floor_cuts = num_steps - 1 - (*window_max)[id];
      if (floor_cuts > cuts) {
        cuts = floor_cuts;
        t = fu;  // the window acts as a register boundary below the op
      }
    }
    tail[id] = t;
    cuts_below[id] = cuts;
    sp.alap = num_steps - 1 - cuts;
    if (anchor_io && ir::is_io(o.kind) && home[id] >= 0) {
      sp.alap = std::min(sp.alap, home[id]);
    }
    if (sp.alap < sp.asap && out.feasible) {
      out.feasible = false;
      out.first_infeasible = id;
    }
  }
  return out;
}

}  // namespace hls::alloc
