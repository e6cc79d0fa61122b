//===- tune/CostModel.h - Calibrated per-loop cost model -------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner's predict-then-verify model. Predictions compose exactly
/// the way the analytic stack already composes them: a loop's static
/// LoopCost (analysis/Cost.h, seeded from the dataset SizeEnv) is run
/// through simulateShared (sim/Simulator.h) at the worker count a candidate
/// decision would actually use — the interpreter's own chunk rule
/// (runtime/ThreadPool.h chunkCount), so a candidate whose chunk size
/// forces the sequential path is simulated on one core — plus the
/// discipline's per-chunk task overhead.
///
/// The raw simulation is in "compiled C++" units; real engines are slower
/// by a per-(loop, engine) factor the model *learns*: every measurement
/// observed through observe() stores measured / rawPredict as a
/// calibration ratio (the same measured-over-predicted ratio
/// sim/Calibration.h reports). Unmeasured engines borrow the other
/// engine's ratio scaled by a nominal interpreter-boxing penalty, so
/// ranking works from the very first baseline run and sharpens as
/// candidates are measured. Everything is deterministic: same costs and
/// measurements, same predictions.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TUNE_COSTMODEL_H
#define DMLL_TUNE_COSTMODEL_H

#include "analysis/Cost.h"
#include "sim/MachineModel.h"
#include "tune/Decision.h"

#include <map>
#include <string>
#include <vector>

namespace dmll {
namespace tune {

/// Nominal boxed-interpreter slowdown vs the simulator's compiled-C++
/// units, used only until a loop has a measured ratio for an engine.
constexpr double InterpPenalty = 40.0;

class TuneCostModel {
public:
  /// \p RunThreads / \p RunMinChunk are the run's global knobs a Default
  /// decision field inherits.
  TuneCostModel(std::vector<LoopCost> Costs, const MachineModel &M,
                unsigned RunThreads, int64_t RunMinChunk);

  /// The static cost entry for \p Sig, or nullptr (loop not analyzable —
  /// typically nested and memoized inside another loop).
  const LoopCost *costFor(const std::string &Sig) const;

  /// Predicted wall ms for one execution of loop \p Sig under decision
  /// \p D. \p Kernel says which engine class the decision resolves to
  /// under the run's global mode.
  double predict(const std::string &Sig, const LoopDecision &D,
                 bool Kernel) const;

  /// Folds in a measurement: loop \p Sig ran on \p Kernel (or interp) with
  /// decision \p D in \p MeasuredMs. Later measurements of the same
  /// (loop, engine) replace earlier ones.
  void observe(const std::string &Sig, bool Kernel, const LoopDecision &D,
               double MeasuredMs);

  /// Simulation-unit prediction before engine calibration (exposed for
  /// tests).
  double rawPredict(const LoopCost &LC, const LoopDecision &D) const;

  /// Chunks loop \p LC runs in at \p N iterations under \p D: the decision
  /// resolved against the run's knobs as interp/Interp.cpp evalMultiloop
  /// resolves it, then runtime/ThreadPool.h chunkCount on LC.FlopsPerIter.
  int64_t chunksFor(const LoopCost &LC, const LoopDecision &D,
                    int64_t N) const;

private:
  /// Workers \p D leaves the loop: min(run threads, cap), or the run's.
  unsigned threadsFor(const LoopDecision &D) const;

  std::map<std::string, LoopCost> Costs;
  /// Measured / rawPredict, keyed "sig/interp" or "sig/kernel".
  std::map<std::string, double> Ratios;
  MachineModel M;
  unsigned RunThreads;
  int64_t RunMinChunk;
};

} // namespace tune
} // namespace dmll

#endif // DMLL_TUNE_COSTMODEL_H
