//===- codegen/LowerCommon.h - Shared lowering helpers ---------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by every backend that lowers multiloops out of the boxed
/// interpreter world: the C++ emitter (codegen/CppEmitter), the CUDA emitter,
/// and the in-process kernel engine (src/engine). They answer the questions
/// every lowering asks per expression: "which unboxed scalar class does this
/// type collapse to?" (the interpreter collapses i32/i64 to int64 and
/// f32/f64 to double — see interp/Value.h), "is this reduction the plain
/// scalar addition?" (which permits a zero-initialized accumulator with no
/// first-element flag, the shape compilers vectorize), "is it element-wise
/// vector addition?" (which may update its accumulator in place), and "is
/// this loop a bounded gather precompute?" (which a backend may evaluate
/// speculatively — e.g. as a launch-time column — even though mayTrap()
/// conservatively says any loop might trap). The interpreter asks the
/// vector-addition question too, for its in-place fast path.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_CODEGEN_LOWERCOMMON_H
#define DMLL_CODEGEN_LOWERCOMMON_H

#include "ir/Expr.h"
#include "ir/Type.h"

namespace dmll {
namespace lower {

/// The unboxed register/buffer classes scalars collapse to at runtime,
/// mirroring interp/Value.h: bool, int64_t, double. NotScalar marks arrays
/// and structs (unlowerable as flat registers).
enum class ScalarKind { I1, I64, F64, NotScalar };

/// Maps a static type to its runtime scalar class.
ScalarKind scalarKindOf(const Type &Ty);

/// Printable name ("i1", "i64", "f64", "non-scalar").
const char *scalarKindName(ScalarKind K);

/// True when \p R is the two-parameter scalar addition (a, b) => a + b (in
/// either parameter order): its accumulator may start at zero with no
/// first-element flag, which lets lowered reduction loops vectorize.
bool isScalarAddReduce(const Func &R);

/// An element-wise-add (Bucket)Reduce, as matchInPlaceAdd finds it.
struct InPlaceAdd {
  /// Array levels the reduce adds through (1 or 2); 0: no match.
  unsigned Depth = 0;
  /// The reduce's scalar addition of the two operands' elements.
  const BinOpExpr *Add = nullptr;
  /// True when Add's left operand reads the accumulator (Params[0]).
  bool AccOnLeft = true;
  /// The value's unconditional Collect levels, outermost first, when the
  /// value is Depth of them (the emitter then computes each element
  /// straight into the accumulator); empty otherwise.
  std::vector<const MultiloopExpr *> Levels;
};

/// Matches a (Bucket)Reduce \p Gen whose reduce adds its operands element
/// by element at every array level over scalars, 1 or 2 levels deep: each
/// level is one unconditional Collect over the length of the accumulator
/// operand, so `acc[k] (+)= v[k]` in place yields exactly the reduce's
/// result — the "aggressive buffer reuse" of hand-optimized code (Section
/// 6). The C++ emitter and the interpreter both use it.
InPlaceAdd matchInPlaceAdd(const Generator &Gen);

/// True when \p E is a loop that provably cannot trap, so a backend may
/// evaluate it speculatively — ahead of any guarding condition — the way
/// the kernel engine materializes column sources at launch. The structural
/// whitelist matches the loops the gather-precompute rewrite
/// (transform/loop/LoopTransforms.h) builds: a single unconditional
/// Collect whose body reads arrays only at the loop index, where the loop
/// size is a Min-chain of the lengths of every array read (all reads
/// in-bounds by construction) and the rest of the body is trap-free.
bool isBoundedGatherLoop(const ExprRef &E);

} // namespace lower
} // namespace dmll

#endif // DMLL_CODEGEN_LOWERCOMMON_H
