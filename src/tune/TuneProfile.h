//===- tune/TuneProfile.h - Tuning artifact (dmll-tune-v1) -----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persisted output of the autotuner (tune/Tuner.h): per-loop decisions
/// keyed by loop signature, plus enough provenance to judge whether a saved
/// artifact still applies — the app name, the run's global knobs, and a
/// fingerprint of the dataset SizeEnv the search measured against. The
/// schema is "dmll-tune-v1"; doubles render with %.17g so a parse/render
/// round trip is bit-identical (the tune_smoke test asserts this), and
/// rendering is fully deterministic (ordered maps, no timestamps).
///
/// Reuse semantics (docs/TUNING.md): a consumer loads an artifact with
/// readTuningProfile, checks `fingerprint` against sizeEnvFingerprint of
/// its own inputs (mismatch means the decisions were tuned for a different
/// dataset scale and should be re-searched), and passes decisions() to
/// ExecOptions::Tuning / CompileOptions::Tuning.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TUNE_TUNEPROFILE_H
#define DMLL_TUNE_TUNEPROFILE_H

#include "analysis/Cost.h"
#include "tune/Decision.h"

#include <string>
#include <vector>

namespace dmll {
namespace tune {

/// One tuned loop: the winning decision plus the measurements that chose it.
struct LoopTuneEntry {
  std::string Loop; ///< loopSignature
  LoopDecision D;
  double BaselineMs = 0;  ///< measured under the run's global knobs
  double PredictedMs = 0; ///< calibrated model's prediction for D
  double MeasuredMs = 0;  ///< measured under D
};

/// A complete tuning artifact.
struct TuningProfile {
  std::string App;     ///< free-form application name
  unsigned Threads = 0;///< global worker count the search ran with
  int64_t MinChunk = 0;///< global minimum chunk size
  std::string Mode;    ///< global engine mode name of the baseline
  std::string Fingerprint; ///< sizeEnvFingerprint of the tuned dataset
  double BaselineMs = 0;   ///< untuned whole-run wall time
  double TunedMs = 0;      ///< whole-run wall time under decisions()
  int Candidates = 0;      ///< candidates enumerated across all loops
  int MeasureRuns = 0;     ///< whole-program runs spent measuring
  std::vector<LoopTuneEntry> Loops; ///< sorted by Loop (render order)

  /// The decision table to execute with.
  DecisionTable decisions() const;
};

/// FNV-1a hash over the sorted Scalars/ArrayLens entries (values formatted
/// %.6g) plus HashKeys/Selectivity; stable across runs for the same inputs.
std::string sizeEnvFingerprint(const SizeEnv &Env);

/// Renders \p TP as dmll-tune-v1 JSON (deterministic, %.17g doubles).
std::string renderTuningProfile(const TuningProfile &TP);

/// Parses dmll-tune-v1 JSON; false on schema or syntax mismatch.
bool parseTuningProfile(const std::string &Text, TuningProfile &Out);

/// File convenience wrappers; false on I/O or parse failure.
bool writeTuningProfile(const std::string &Path, const TuningProfile &TP);
bool readTuningProfile(const std::string &Path, TuningProfile &Out);

} // namespace tune
} // namespace dmll

#endif // DMLL_TUNE_TUNEPROFILE_H
