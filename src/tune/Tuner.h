//===- tune/Tuner.h - Feedback-directed autotuner --------------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closes the loop from measured LoopProfiles to per-loop execution knobs
/// (docs/TUNING.md). Two searches share the decision vocabulary of
/// tune/Decision.h:
///
///  * tuneProgram() searches the *runtime* knobs — engine (interp/kernel),
///    worker cap, parallel chunk size, wide kernel blocks — loop by loop.
///    It runs the untuned baseline once, seeds the calibrated cost model
///    (tune/CostModel.h) from the measurements, enumerates candidates per
///    loop, ranks them by predicted time, and measures only the top few
///    (predict-then-verify): each round executes the whole program once
///    with every loop's next-ranked candidate installed. The winner per
///    loop is the measured minimum — the baseline competes, so a tuned
///    loop is never slower than untuned on the evidence the search saw.
///
///  * tuneGeneratedCpp() searches the *compile-time* knobs — per-loop
///    loop-transform-plan masking and horizontal-fusion exclusion — by
///    building and timing generated-C++ variants. The default variant's
///    measurement is the baseline, so the best variant is at least as fast
///    by construction.
///
/// Both return / fill a TuningProfile (tune/TuneProfile.h) persisted as
/// dmll-tune-v1 JSON. Given the same measurements the search is fully
/// deterministic (stable ranking, enumeration-order tie-breaks).
///
/// syntheticDecisions() derives a deterministic mixed-engine decision
/// table from loop-signature hashes; the fuzz oracle executes it as a
/// ninth configuration and requires bit-identical results.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TUNE_TUNER_H
#define DMLL_TUNE_TUNER_H

#include "engine/Engine.h"
#include "interp/Interp.h"
#include "transform/Pipeline.h"
#include "tune/TuneProfile.h"

#include <string>

namespace dmll {
namespace tune {

/// Search configuration for tuneProgram.
struct TuneOptions {
  CompileOptions Compile;
  /// Global run knobs the tuned run will execute with; decisions narrow
  /// them per loop. The search defaults to 4 workers under Auto (chunk
  /// 1024); a Tuning table set here is ignored.
  ExecOptions Exec;
  /// Measured candidate rounds after the baseline (each is one whole-
  /// program execution installing every loop's next-ranked candidate).
  int Rounds = 3;

  TuneOptions() {
    Exec.Threads = 4;
    Exec.Mode = engine::EngineMode::Auto;
  }
};

/// Runtime-knob search (see \file). \p App is a free-form label stored in
/// the artifact.
TuningProfile tuneProgram(const std::string &App, const Program &P,
                          const InputMap &Inputs, const TuneOptions &Opts);

/// Result of the generated-C++ variant search.
struct CodegenTuneResult {
  double BaselineMs = 0; ///< default variant, ms per timed iteration
  double TunedMs = 0;    ///< best variant (<= BaselineMs by construction)
  std::string BestVariant = "default";
  int Variants = 0; ///< variants built and timed
  /// Compile-time decisions reproducing the best variant (empty when the
  /// default won).
  DecisionTable Decisions;
};

/// Builds and times generated-C++ variants of \p P: the default emission,
/// a global no-loop-transforms ablation, per-loop plan masking, and
/// horizontal-fusion exclusions derived from compile provenance. Variants
/// whose checksum diverges from the default are discarded. Artifacts land
/// in \p WorkDir under \p BaseName-derived names.
CodegenTuneResult tuneGeneratedCpp(const Program &P, const InputMap &Inputs,
                                   const CompileOptions &Copts,
                                   const std::string &WorkDir,
                                   const std::string &BaseName,
                                   int TimingIters = 3);

/// Deterministic mixed-engine decision table for differential testing:
/// every closed multiloop gets an engine (and, for kernels, a wide bit)
/// from an FNV-1a hash of its signature, with Threads/MinChunk pinned to
/// the given globals so chunk boundaries — and therefore float
/// reassociation — match the untuned run exactly.
DecisionTable syntheticDecisions(const Program &P, unsigned Threads,
                                 int64_t MinChunk);

} // namespace tune
} // namespace dmll

#endif // DMLL_TUNE_TUNER_H
