//===- engine/Engine.h - Kernel engine public knobs and stats --*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public surface of the unboxed kernel engine: the EngineMode knob that
/// selects between the boxed tree-walking interpreter and bytecode-compiled
/// multiloop kernels, and the KernelStats record that reports what the
/// engine did (kernels compiled, launches, fallbacks with reasons, and
/// per-kernel timings). This header is dependency-light on purpose: it is
/// included by interp/Interp.h and runtime/Executor.h, while the heavy
/// machinery lives in engine/Kernel.h, engine/KernelCompiler.h and
/// engine/KernelVM.h. See docs/EXECUTION.md for the full design.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_ENGINE_ENGINE_H
#define DMLL_ENGINE_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace dmll {
namespace engine {

/// How evalProgramRecover and executeProgram run multiloops.
///  * Interp: the boxed reference interpreter only (ground truth).
///  * Kernel: compile every closed multiloop to bytecode; loops the compiler
///    cannot lower fall back transparently to the interpreter.
///  * Auto:   like Kernel, but tiny loops (fewer than AutoMinIters
///    iterations) stay on the interpreter, where compile + column binding
///    overhead would dominate.
enum class EngineMode { Interp, Kernel, Auto };

/// Iteration-count threshold below which Auto keeps a loop interpreted.
inline constexpr int64_t AutoMinIters = 32;

/// Printable mode name ("interp" | "kernel" | "auto").
const char *engineModeName(EngineMode M);

/// Parses "interp" | "kernel" | "auto" (case-sensitive); defaults to
/// \p Default on no match.
EngineMode parseEngineMode(const std::string &S,
                           EngineMode Default = EngineMode::Auto);

/// Aggregated execution record of one compiled kernel (one multiloop).
struct KernelTiming {
  std::string Loop;    ///< loopSignature of the multiloop
  int64_t Launches = 0;///< times the kernel ran
  int64_t Iters = 0;   ///< total iteration-space items across launches
  double Millis = 0;   ///< total wall time inside the kernel VM
  bool Parallel = false; ///< at least one launch took the chunked path
};

/// What the engine did during one program evaluation.
struct KernelStats {
  int64_t Compiled = 0;      ///< distinct multiloops lowered to bytecode
  int64_t Launches = 0;      ///< total kernel executions
  int64_t FallbackLoops = 0; ///< distinct loops the compiler rejected
  int64_t FallbackRuns = 0;  ///< executions that took the interpreter path
  double CompileMillis = 0;  ///< wall time spent in the kernel compiler
  /// Per-kernel timings, in first-compilation order.
  std::vector<KernelTiming> Kernels;
  /// One "<loop-signature>: <reason>" line per rejected loop.
  std::vector<std::string> Fallbacks;
};

} // namespace engine
} // namespace dmll

#endif // DMLL_ENGINE_ENGINE_H
