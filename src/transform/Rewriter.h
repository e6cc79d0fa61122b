//===- transform/Rewriter.h - Rewrite-rule framework -----------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rewrite framework behind Section 3's transformations. Rules match a
/// single node (usually a multiloop) whose children have already been
/// rewritten; the driver applies a rule set bottom-up to a fixed point.
/// Following Section 4.2, rules are designed not to overlap and the driver
/// tries one rule at a time, keeping the search linear and
/// order-independent.
///
/// Every application is recorded in RewriteStats: a per-rule counter plus a
/// RewriteApplication provenance record (rule, phase, pass, pre/post
/// summaries), and — when a TraceSession is active — a "rewrite.<rule>"
/// trace instant. docs/TELEMETRY.md documents the resulting format.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TRANSFORM_REWRITER_H
#define DMLL_TRANSFORM_REWRITER_H

#include "ir/Expr.h"

#include <map>
#include <string>
#include <vector>

namespace dmll {

/// A single local rewrite. apply() returns nullptr when the node does not
/// match.
class RewriteRule {
public:
  virtual ~RewriteRule();

  /// Stable rule name, e.g. "groupby-reduce" (recorded in RewriteStats and
  /// printed by benches to match Table 2's "Optimizations" column).
  virtual const char *name() const = 0;

  /// Attempts the rewrite at \p E; children of \p E are already rewritten.
  virtual ExprRef apply(const ExprRef &E) const = 0;
};

/// Provenance of one rule application: which rule fired, in which pipeline
/// phase and fixpoint pass, and one-line pre/post expression summaries
/// (loop signatures for multiloops, truncated printed IR otherwise).
struct RewriteApplication {
  std::string Rule;   ///< RewriteRule::name()
  std::string Phase;  ///< pipeline stage label, e.g. "fusion", "stencil"
  int Pass = 0;       ///< fixpoint pass number within the stage (1-based)
  std::string Before; ///< summary of the matched node
  std::string After;  ///< summary of the replacement
};

/// Counts of rule applications, keyed by rule name, plus the full ordered
/// provenance log (one record per application, so
/// `Provenance.size() == total()` always holds — ObserveTest checks it).
struct RewriteStats {
  std::map<std::string, int> Applied;
  /// Every application in firing order.
  std::vector<RewriteApplication> Provenance;
  /// Label stamped on subsequent Provenance records (set by the pipeline
  /// driver around each stage).
  std::string Phase;

  int total() const {
    int N = 0;
    for (const auto &[K, V] : Applied)
      N += V;
    return N;
  }

  /// Records one application: bumps Applied, appends provenance, and emits
  /// a "rewrite.<rule>" instant into the active TraceSession (if any).
  void recordApplication(const char *Rule, int Pass, const ExprRef &Before,
                         const ExprRef &After);

  /// All applications of \p Rule, in firing order.
  std::vector<const RewriteApplication *>
  applicationsOf(const std::string &Rule) const;

  /// Per-loop query: applications whose pre- or post-summary contains
  /// \p Substr (e.g. a loop signature fragment like "BucketReduce").
  std::vector<const RewriteApplication *>
  applicationsTouching(const std::string &Substr) const;

  /// True iff per-rule provenance counts equal Applied exactly.
  bool provenanceConsistent() const;
};

/// One-line summary of an expression for provenance records: loopSignature
/// for multiloops, first line of the printed IR (truncated) otherwise.
std::string summarizeExpr(const ExprRef &E);

/// Applies \p Rules bottom-up over \p E repeatedly until no rule fires or
/// \p MaxPasses is reached. Stats, when provided, accumulate applications.
ExprRef rewriteFixpoint(const ExprRef &E,
                        const std::vector<const RewriteRule *> &Rules,
                        RewriteStats *Stats = nullptr, int MaxPasses = 8);

/// rewriteFixpoint over a program's result.
Program rewriteProgram(const Program &P,
                       const std::vector<const RewriteRule *> &Rules,
                       RewriteStats *Stats = nullptr, int MaxPasses = 8);

/// Rewrites \p Loop (a multiloop) so that the unary component functions
/// (cond, key, value) of all generators bind one shared index symbol. The
/// nested-pattern rules and cross-generator CSE rely on this normal form.
/// Returns the input unchanged if already normalized.
ExprRef normalizeLoopIndex(const ExprRef &Loop);

/// Replaces every occurrence of node \p From (pointer identity) with \p To
/// under \p Root.
ExprRef replaceNode(const ExprRef &Root, const Expr *From, const ExprRef &To);

} // namespace dmll

#endif // DMLL_TRANSFORM_REWRITER_H
