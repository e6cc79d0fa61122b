//===- fuzz/Gen.h - Random well-typed DMLL program generator --*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generation of random well-typed DMLL programs plus matching input
/// data, in the spirit of structured IR fuzzing (grammar-directed, always
/// verifier-clean). Programs exercise all four generator kinds, nested
/// multiloops, non-trivial conditions and keys, struct and array values,
/// element-wise-add vector (Bucket)Reduces 1 and 2 levels deep (some
/// starting from a shared input or loop result), BinOps reading one node
/// twice, DAG sharing, and — at a controlled rate — adversarial sites
/// (unguarded division, INT64_MIN literals, out-of-range dense keys,
/// 0-length ranges, vector values shorter than their accumulator) whose
/// traps the differential oracle cross-checks between executors.
/// Generation is fully deterministic: the same seed always produces the
/// same program (up to symbol ids, i.e. alpha-equivalence) and input data.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_FUZZ_GEN_H
#define DMLL_FUZZ_GEN_H

#include "interp/Interp.h"
#include "ir/Expr.h"

#include <cstdint>

namespace dmll {
namespace fuzz {

/// Generation knobs. Defaults keep programs small enough that a full
/// differential run (six executor configurations) takes milliseconds.
struct GenOptions {
  int MaxLoopDepth = 2;       ///< maximum multiloop nesting
  int64_t MaxConstSize = 24;  ///< cap for constant loop sizes
  int64_t MaxInputLen = 32;   ///< cap for generated input array lengths
  /// Per-program probability (percent) of injecting one adversarial site
  /// (unguarded division, INT64_MIN constant, unchecked dense key).
  int AdversarialPct = 15;
};

/// One generated test case: a verifier-clean program plus bound inputs.
struct FuzzCase {
  uint64_t Seed = 0;
  Program P;
  InputMap Inputs;
};

/// Generates the case for \p Seed. Deterministic; aborts only on internal
/// generator bugs (the produced program always passes verify()).
FuzzCase generateCase(uint64_t Seed, const GenOptions &O = GenOptions());

} // namespace fuzz
} // namespace dmll

#endif // DMLL_FUZZ_GEN_H
