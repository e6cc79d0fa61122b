//===- engine/KernelCompiler.h - Multiloop -> bytecode lowering -*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a closed multiloop into the register bytecode of engine/Kernel.h.
/// Scalar expression bodies over loop-invariant arrays lower, and so do the
/// nested patterns of the catalog apps: an open inner Reduce over scalars
/// or a struct of scalars, an open inner Collect of scalars read by index,
/// and element-wise vector reductions (lower::matchInPlaceAdd) into
/// per-chunk accumulators. Each nested loop is placed where the interpreter
/// evaluates it — once per iteration of its innermost binder, at first use,
/// never above a condition or a Select arm. Anything else (struct-valued
/// generators, bucket or multi-generator inner loops, Flatten in the body)
/// returns a failure reason and the caller falls back to the reference
/// interpreter, which is always semantically complete. The lowering
/// preserves the interpreter's observable behaviour: lazy Select, eager
/// And/Or, static-type-driven arithmetic over dynamic-kind registers, and
/// the exact trap messages for division by zero, out-of-range reads and
/// negative inner loop sizes.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_ENGINE_KERNELCOMPILER_H
#define DMLL_ENGINE_KERNELCOMPILER_H

#include "engine/Kernel.h"

#include <memory>
#include <string>

namespace dmll {
namespace engine {

/// Result of compiling one multiloop: either a kernel or a human-readable
/// reason why the loop must stay on the interpreter.
struct CompileOutcome {
  std::unique_ptr<Kernel> K; ///< null when the loop cannot be lowered
  std::string Reason;        ///< set when K is null
};

/// Compiles \p Loop (a Multiloop node; must be closed — no free symbols) to
/// bytecode. Never fails fatally: unlowerable constructs produce a
/// CompileOutcome with a reason string instead.
CompileOutcome compileKernel(const ExprRef &Loop);

} // namespace engine
} // namespace dmll

#endif // DMLL_ENGINE_KERNELCOMPILER_H
