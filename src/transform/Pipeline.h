//===- transform/Pipeline.h - Target-driven compilation driver -*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes the transformation catalog per hardware target, following
/// Sections 3.2 and 4.2:
///
///   1. CSE, then pipeline fusion to a fixed point (with GroupBy-Reduce,
///      which is always beneficial).
///   2. AoS-to-SoA + dead field elimination.
///   3. Stencil-driven nested-pattern rewrites: while some multiloop has an
///      Unknown stencil — or an All stencil — on a partitioned collection,
///      try the Fig. 3 rules one at a time (linear, order-independent
///      search) and keep a rewrite iff it reduces the bad-stencil count.
///      Failures fall back to runtime data movement with a warning.
///   4. GPU targets additionally apply Row-to-Column Reduce whenever
///      possible (scalar reductions fit shared memory).
///   5. Horizontal fusion, bucket-key sharing, CSE, DCE.
///   6. Loop-level transforms (transform/loop/LoopTransforms.h): the
///      gather-precompute rewrite runs here, after fusion has settled, so
///      its precompute loops are hoisted rather than fused away.
///
/// When a TraceSession (observe/Trace.h) is active, every stage records a
/// timed "compile.*" phase span with IR node/loop counts, every rewrite
/// application records a "rewrite.<rule>" instant, and RewriteStats carries
/// full per-application provenance. See docs/TELEMETRY.md.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TRANSFORM_PIPELINE_H
#define DMLL_TRANSFORM_PIPELINE_H

#include "analysis/Partitioning.h"
#include "transform/Rewriter.h"
#include "transform/Soa.h"

namespace dmll {

/// Hardware targets of the compiler (Table 1's last four columns).
enum class Target { Sequential, MultiCore, Numa, Cluster, Gpu, GpuCluster };

/// Printable target name.
const char *targetName(Target T);

namespace tune {
class DecisionTable;
} // namespace tune

/// Ablation-friendly switches; defaults reproduce the full DMLL pipeline.
struct CompileOptions {
  Target T = Target::Numa;
  bool EnableFusion = true;       ///< pipeline (vertical) fusion
  bool EnableHorizontal = true;   ///< horizontal fusion
  bool EnableSoa = true;          ///< AoS-to-SoA + DFE
  bool EnableNestedRules = true;  ///< Fig. 3 rules (Fig. 6's ablation knob)
  bool EnableLoopTransforms = true; ///< loop layer (transform/loop/)
  int MaxPasses = 6;
  /// Per-loop tuning decisions (tune/Decision.h): loops flagged
  /// NoHorizontalFuse are excluded from horizontal fusion; loops flagged
  /// NoLoopTransforms get empty loop-transform plans at codegen. Null
  /// compiles untuned.
  const tune::DecisionTable *Tuning = nullptr;
};

/// Output of compileProgram.
struct CompileResult {
  Program P;
  PartitionInfo Partitioning; ///< final layouts / stencils / warnings
  RewriteStats Stats;         ///< which rules fired, how often (Table 2),
                              ///< plus per-application provenance records
  std::map<std::string, std::vector<std::string>> SoaConverted;

  /// True if the named rule fired at least once.
  bool applied(const std::string &Rule) const {
    auto It = Stats.Applied.find(Rule);
    return It != Stats.Applied.end() && It->second > 0;
  }
};

/// Runs the full pipeline for the target in \p Opts.
CompileResult compileProgram(const Program &P, const CompileOptions &Opts);

} // namespace dmll

#endif // DMLL_TRANSFORM_PIPELINE_H
