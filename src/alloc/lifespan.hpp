// Timing-aware ASAP / ALAP life spans (paper Section IV.A).
//
// Improving on pure step-level mobility (Sharma-Jain), life spans are
// computed with approximate timing: a greedy chain-packing pass walks the
// DFG in topological order accumulating combinational delay (ignoring
// sharing muxes, as the paper specifies for the initial estimate) and cuts
// the chain at register boundaries when the usable cycle time would be
// exceeded. ALAP mirrors the pass from the region's deadline.
#pragma once

#include <string>
#include <vector>

#include "ir/region.hpp"
#include "tech/library.hpp"

namespace hls::alloc {

struct OpSpan {
  int asap = 0;
  int alap = 0;
  /// Optimistic arrival of the op's output within its ASAP step (ps).
  double asap_arrival_ps = 0;
  bool in_region = false;

  int mobility() const { return alap - asap; }
};

struct LifespanResult {
  std::vector<OpSpan> spans;  ///< indexed by OpId; in_region marks members
  bool feasible = true;       ///< false if some op has alap < asap
  ir::OpId first_infeasible = ir::kNoOp;
};

/// Empty when every op of `region` fits in one `tclk_ps` cycle on its own
/// (no chaining, no sharing muxes); otherwise why the first one in
/// program order does not. No relaxation can fix such a clock, so the
/// scheduler checks this before building a problem: compute_lifespans
/// assumes it holds.
std::string clock_too_short(const ir::Dfg& dfg, const ir::LinearRegion& region,
                            const tech::Library& lib, double tclk_ps);

/// Computes spans for all ops of `region` over `num_steps` control steps.
/// If `anchor_io` is true (timed regions), reads/writes are pinned to their
/// home step.
///
/// `window_min` / `window_max` (optional, indexed by OpId, -1 = none) fold
/// absolute I/O timing windows (mem::WindowSpec) into the spans: the ASAP
/// pass clamps an op's earliest step up to window_min (propagating to its
/// consumers), and the ALAP pass folds window_max into the register-cut
/// count *before* it is stored, so producers of a windowed op are pulled
/// earlier too. Both scheduler backends then enforce the window purely
/// through release()/deadline().
LifespanResult compute_lifespans(const ir::Dfg& dfg,
                                 const ir::LinearRegion& region,
                                 int num_steps, const tech::Library& lib,
                                 double tclk_ps, bool anchor_io,
                                 const std::vector<int>* window_min = nullptr,
                                 const std::vector<int>* window_max = nullptr);

}  // namespace hls::alloc
