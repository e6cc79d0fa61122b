//===- codegen/CppEmitter.h - C++ code generation --------------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates a standalone C++ program from a DMLL Program: multiloops
/// become tight loops over flat std::vectors, with loop-invariant
/// subexpressions hoisted to the scope of their deepest dependency (code
/// motion) and DAG-shared subexpressions emitted once per scope (CSE). The
/// generated main() loads inputs from a binary file, times the computation
/// over several repetitions, and prints a checksum plus per-iteration time
/// — this is the "DMLL generated C++" column of Table 2, compiled with gcc
/// -O3 by the benchmark harness and raced against src/refimpl.
///
/// The emitter additionally consumes the per-generator loop-transform plan
/// (transform/loop/LoopTransforms.h): planned collects store by index into
/// a pre-sized buffer under `#pragma omp simd`, scalar reductions strip-mine
/// their value computation into a vectorizable lane buffer (folded in index
/// order, so results stay bit-identical), and in-place-add accumulators are
/// sized once before the loop — two-level ones flattened to a row-major
/// buffer for the duration of the loop. Which reductions accumulate in place
/// is codegen/LowerCommon.h matchInPlaceAdd's call, the one matcher the
/// interpreter's in-place path shares. docs/CODEGEN.md shows the emitted
/// C++ before and after each transform.
///
/// Host-side helpers serialize an InputMap to the binary format and compute
/// the same checksum over interpreter Values, so tests can validate
/// generated code end-to-end against the reference interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_CODEGEN_CPPEMITTER_H
#define DMLL_CODEGEN_CPPEMITTER_H

#include "interp/Interp.h"
#include "interp/Value.h"
#include "ir/Expr.h"

#include <string>

namespace dmll {

namespace tune {
class DecisionTable;
} // namespace tune

/// Code generation options.
struct CppEmitOptions {
  /// Timed repetitions of the whole computation in the generated main().
  int TimingIters = 3;
  /// Consume planLoopTransforms() decisions (transform/loop/): indexed
  /// stores, `#pragma omp simd` hints, strip-mined reductions, hoisted and
  /// flattened accumulators. Off emits the plain per-generator loops.
  bool EnableLoopTransforms = true;
  /// Per-loop tuning decisions (tune/Decision.h): loops flagged
  /// NoLoopTransforms get no plan bits. Null emits untuned.
  const tune::DecisionTable *Tuning = nullptr;
};

/// Emits the full standalone C++ source for \p P.
std::string emitCpp(const Program &P, const CppEmitOptions &Opts = {});

/// Order-insensitive-ish result digest: scalar count, plain sum, sum of
/// absolute values. Mirrored exactly by the generated program's output.
struct Checksum {
  int64_t Count = 0;
  double Sum = 0;
  double Abs = 0;
};

/// Digest of an interpreter Value (host side of the validation).
Checksum checksumValue(const Value &V);

/// Serializes \p Inputs (in \p P's input order, leaves in type DFS order,
/// arrays of structs as per-field columns) to the binary format the
/// generated program loads. Aborts on type mismatch.
void writeInputsBinary(const Program &P, const InputMap &Inputs,
                       const std::string &Path);

/// Result of running a generated program (parsed from its stdout).
struct GeneratedRunResult {
  Checksum Sum;
  double MillisPerIter = 0;
  bool Ok = false;
};

/// Convenience for tests/benches: emit, compile with the system compiler
/// (-O3), run with the serialized inputs, and parse the output. \p WorkDir
/// must exist; artifacts are left there for inspection.
GeneratedRunResult compileAndRun(const Program &P, const InputMap &Inputs,
                                 const std::string &WorkDir,
                                 const std::string &BaseName,
                                 const CppEmitOptions &Opts = {});

} // namespace dmll

#endif // DMLL_CODEGEN_CPPEMITTER_H
