//===- tune/Decision.h - Per-loop tuning decisions -------------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision vocabulary of the feedback-directed autotuner
/// (tune/Tuner.h): a LoopDecision bundles every per-loop execution knob the
/// runtime exposes — engine choice, worker count, parallel chunk size, wide
/// kernel blocks — plus the two compile-time ablations (horizontal-fusion
/// exclusion and loop-transform-plan masking). A DecisionTable maps loop
/// signatures (ir/Printer.h loopSignature) to decisions and is threaded
/// through EvalOptions into the interpreter, which consults it for every
/// closed multiloop; absent entries (and zero/negative fields) mean "keep
/// the run's global setting", so an empty table reproduces untuned
/// execution exactly.
///
/// This header is dependency-light on purpose: interp/Interp.h,
/// transform/Pipeline.h and codegen/CppEmitter.h all include it, and the
/// tuner that *produces* tables lives above all three.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TUNE_DECISION_H
#define DMLL_TUNE_DECISION_H

#include <cstdint>
#include <map>
#include <string>

namespace dmll {
namespace tune {

/// Per-loop engine override. Default defers to the run's global EngineMode;
/// Interp pins the boxed interpreter; Kernel always attempts bytecode
/// compilation (falling back transparently like EngineMode::Kernel does).
enum class LoopEngine { Default, Interp, Kernel };

const char *loopEngineName(LoopEngine E);
LoopEngine parseLoopEngine(const std::string &S);

/// One loop's tuned knobs. Every field has an "inherit the global setting"
/// value so decisions compose with whatever EvalOptions the run carries.
struct LoopDecision {
  LoopEngine Engine = LoopEngine::Default;
  /// Worker cap for this loop; 0 inherits. The effective count is
  /// min(run threads, Threads) — a decision can narrow parallelism (a
  /// memory-bound loop that stops scaling) but never widen the pool.
  unsigned Threads = 0;
  /// Minimum work units per parallel chunk for this loop (the same unit as
  /// ExecOptions::MinChunk); <= 0 inherits.
  int64_t MinChunk = 0;
  /// Wide kernel blocks: -1 inherits, 0 forces scalar, 1 forces wide.
  int Wide = -1;
  /// Compile-time: exclude this loop (by its pre-fusion signature) from
  /// horizontal fusion (transform/HorizontalFusion.cpp).
  bool NoHorizontalFuse = false;
  /// Compile-time: mask this loop's loop-transform plan bits off
  /// (transform/loop/LoopTransforms.h planLoopTransforms).
  bool NoLoopTransforms = false;

  /// True when every field inherits (the decision is a no-op).
  bool isDefault() const {
    return Engine == LoopEngine::Default && Threads == 0 && MinChunk <= 0 &&
           Wide < 0 && !NoHorizontalFuse && !NoLoopTransforms;
  }

  bool operator==(const LoopDecision &O) const {
    return Engine == O.Engine && Threads == O.Threads &&
           MinChunk == O.MinChunk && Wide == O.Wide &&
           NoHorizontalFuse == O.NoHorizontalFuse &&
           NoLoopTransforms == O.NoLoopTransforms;
  }
};

/// Decisions keyed by loop signature. Ordered map so serialization and
/// iteration are deterministic.
class DecisionTable {
public:
  void set(const std::string &Sig, const LoopDecision &D) { Map[Sig] = D; }

  /// The decision for \p Sig, or nullptr (inherit everything).
  const LoopDecision *lookup(const std::string &Sig) const {
    auto It = Map.find(Sig);
    return It == Map.end() ? nullptr : &It->second;
  }

  bool empty() const { return Map.empty(); }
  size_t size() const { return Map.size(); }
  const std::map<std::string, LoopDecision> &entries() const { return Map; }

  bool operator==(const DecisionTable &O) const { return Map == O.Map; }

private:
  std::map<std::string, LoopDecision> Map;
};

} // namespace tune
} // namespace dmll

#endif // DMLL_TUNE_DECISION_H
