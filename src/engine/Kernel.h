//===- engine/Kernel.h - Register bytecode for multiloop bodies -*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of one closed multiloop: a flat register-based bytecode
/// over three typed register banks (i64 / f64 / i1) plus typed column
/// buffers and per-chunk local arrays, executed per index by
/// engine/KernelVM. The instruction stream is one pass over all generators
/// of the loop (condition, value, key, inline reduction per generator), so
/// a fused multiloop keeps its single-traversal property from the paper.
/// Loop-invariant scalar subexpressions become *uniforms* (registers
/// written once at launch); loop-invariant arrays read by the body become
/// *columns* (flat typed buffers bound at launch). A nested (loop-varying)
/// pattern runs as an inner bytecode loop: a scalar Reduce into a register,
/// a Reduce over a struct of scalars into one register per field, a scalar
/// Collect into a local array; each is computed once per iteration of its
/// innermost binder, at first use, behind a flag. A generator whose value
/// is an array added element-wise (lower::matchInPlaceAdd) accumulates in
/// place into a per-chunk vector accumulator. See docs/EXECUTION.md for the
/// format and the compiler's fallback rules.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_ENGINE_KERNEL_H
#define DMLL_ENGINE_KERNEL_H

#include "codegen/LowerCommon.h"
#include "ir/Expr.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dmll {
namespace engine {

/// Bytecode operations. Register operands live in one of three banks chosen
/// by the op suffix: I = int64, F = double, B = bool. `Dst`/`A`/`B` are
/// bank-local register numbers except where noted.
enum class ROp : uint8_t {
  // Control. Target is an absolute instruction index.
  Jump,        ///< ip = Target
  JumpIfFalse, ///< if (!RB[A]) ip = Target
  JumpIfTrue,  ///< if (RB[A]) ip = Target

  // Constants and moves.
  LoadImmI, ///< RI[Dst] = ImmI
  LoadImmF, ///< RF[Dst] = ImmF
  LoadImmB, ///< RB[Dst] = (ImmI != 0)
  MoveI,    ///< RI[Dst] = RI[A]
  MoveF,    ///< RF[Dst] = RF[A]
  MoveB,    ///< RB[Dst] = RB[A]

  // Column loads: A = column slot, B = index register (i64 bank).
  // Bounds-checked with the interpreter's exact fatal message.
  LoadColI, ///< RI[Dst] = colI[A][RI[B]]
  LoadColF, ///< RF[Dst] = colF[A][RI[B]]
  LoadColB, ///< RB[Dst] = colB[A][RI[B]]

  // i64 arithmetic. DivI/ModI trap on zero like the interpreter.
  AddI, SubI, MulI, DivI, ModI, MinI, MaxI, NegI, AbsI,

  // f64 arithmetic. MinF/MaxF are std::fmin/std::fmax; ModF is std::fmod.
  AddF, SubF, MulF, DivF, ModF, MinF, MaxF, NegF, AbsF, ExpF, LogF, SqrtF,

  // Comparisons (result in the bool bank).
  EqI, NeI, LtI, LeI, GtI, GeI,
  EqF, NeF, LtF, LeF, GtF, GeF,

  // Boolean logic (eager, like the interpreter's And/Or).
  AndB, OrB, NotB,

  // Scalar conversions, mirroring Value::toInt / Value::toDouble and the
  // interpreter's Cast case.
  I2F, ///< RF[Dst] = double(RI[A])
  F2I, ///< RI[Dst] = int64(RF[A])   (truncation, as Value::toInt)
  B2I, ///< RI[Dst] = RB[A] ? 1 : 0
  B2F, ///< RF[Dst] = RB[A] ? 1.0 : 0.0
  I2B, ///< RB[Dst] = (RI[A] != 0)
  F2B, ///< RB[Dst] = (RF[A] != 0.0)

  // Generator emits. Dst = generator ordinal; A = value register (in the
  // generator's value bank); Target = first instruction after the
  // generator's section.
  EmitCollect, ///< append value register A to the collect buffer
  EmitBucket,  ///< key = RI[plan.KeyReg]; append A to that bucket (collect)
  ReduceHead,  ///< first hit: acc = A, jump Target; else load acc/val regs
  ReduceStore, ///< acc = A (end of the inline reduce fragment)
  BucketHead,  ///< like ReduceHead for the keyed slot (key = RI[plan.KeyReg])
  BucketStore, ///< pending slot = A (end of the inline reduce fragment)

  // Inner loops: A = trip-count register. Each iteration counts one unit
  // of work as it starts.
  ResetFlags, ///< RB[f] = 0 for every f in FlagLists[A] (binder iteration)
  LoopEnter,  ///< RI[A] < 0 traps; RI[A] == 0 jumps to Target
  LoopNext,   ///< if (++RI[B] < RI[A]) ip = Target (B = index register)

  // Local arrays (per chunk). Dst = result register or, for pushes, the
  // local; A = local slot (pushes: the value register); B = index register.
  // Pushes and row ends count one collected element's memory.
  LocalClear, ///< empty local A (elements and rows)
  PushLocI,   ///< local Dst += RI[A]
  PushLocF,   ///< local Dst += RF[A]
  PushLocB,   ///< local Dst += RB[A]
  AppendLoc,  ///< local Dst += the elements of local A (a shared row)
  LocalRowEnd, ///< close the current row of 2-level local A
  LoadLocI,   ///< RI[Dst] = local A [RI[B]], bounds-checked like LoadColI
  LoadLocF,   ///< RF[Dst] = local A [RI[B]]
  LoadLocB,   ///< RB[Dst] = local A [RI[B]]
  LocalLen,   ///< RI[Dst] = element count of 1-level local A

  // Vector accumulators: Dst = generator ordinal, A = local slot holding
  // the value. The first value is copied; later ones add in place.
  EmitVecReduce, ///< fold local A into the generator's accumulator
  EmitVecBucket, ///< fold local A into dense bucket RI[plan.KeyReg]
};

/// One instruction. Target/ImmI/ImmF are used only by the ops that name
/// them; a fixed-width layout keeps dispatch branch-free.
struct Inst {
  ROp Op;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  int32_t Target = 0;
  int64_t ImmI = 0;
  double ImmF = 0;
};

/// A loop-invariant scalar: evaluated once at launch (through the
/// interpreter, so nested producer loops stay memoized) into register Reg of
/// bank Kind. Root, when set, is the closed loop E projects from: E may trap
/// only while Root is uncomputed, so the launch binds it only once the run
/// has computed Root, and falls back otherwise.
struct UniformRef {
  ExprRef E;
  lower::ScalarKind Kind = lower::ScalarKind::I64;
  uint16_t Reg = 0;
  ExprRef Root;
};

/// A loop-invariant array of scalars read by the body: evaluated once at
/// launch and flattened into a typed buffer in slot Slot of bank Kind.
/// Root as for UniformRef.
struct ColumnRef {
  ExprRef E;
  lower::ScalarKind Kind = lower::ScalarKind::F64;
  uint16_t Slot = 0;
  ExprRef Root;
};

/// A per-chunk local array: the elements of a nested Collect, or of a
/// generator value's two Collect levels, flat, with row ends.
struct LocalPlan {
  lower::ScalarKind Kind = lower::ScalarKind::F64;
};

/// Per-generator execution plan: register assignments for the emit ops plus
/// everything the VM needs to merge chunk states and box the final result
/// exactly like the interpreter's finishGen.
struct GenPlan {
  GenKind Kind = GenKind::Collect;
  /// Runtime bank of the generator's value (and accumulator).
  lower::ScalarKind ValKind = lower::ScalarKind::F64;
  /// Static type of the value body; Value::zeroOf(*ValType) is the result
  /// for empty reductions and untouched dense buckets.
  TypeRef ValType;
  bool Dense = false;     ///< dense bucket representation (NumKeys set)
  ExprRef NumKeys;        ///< dense bucket count; evaluated at every launch
  uint16_t KeyReg = 0;    ///< i64 register holding the (coerced) key
  uint16_t ValReg = 0;    ///< value register (bank ValKind)
  /// Vector accumulator (Reduce or dense BucketReduce): the array levels of
  /// the value (1 or 2; 0 for a scalar generator), whose elements, of bank
  /// ValKind, sit in local ValReg. AccOnLeft: the addition reads the
  /// accumulator as its left operand.
  unsigned VecDepth = 0;
  bool AccOnLeft = true;
  // Inline reduce fragment (Reduce / BucketReduce only): code indices
  // [FragBegin, FragEnd) compute reduce(acc, val) from AccInReg/ValInReg
  // into ResultReg; Code[FragEnd] is the ReduceStore/BucketStore. The VM
  // replays the fragment standalone to merge chunk accumulators.
  uint16_t AccInReg = 0;
  uint16_t ValInReg = 0;
  uint16_t ResultReg = 0;
  int32_t FragBegin = 0;
  int32_t FragEnd = 0;
};

/// A compiled multiloop.
struct Kernel {
  std::vector<Inst> Code;          ///< one full element iteration
  std::vector<GenPlan> Gens;       ///< parallel to MultiloopExpr::gens()
  std::vector<UniformRef> Uniforms;
  std::vector<ColumnRef> Columns;
  std::vector<LocalPlan> Locals;
  /// The computed-flags each binder iteration resets (ResetFlags operand).
  std::vector<std::vector<uint16_t>> FlagLists;
  uint16_t NumI = 0, NumF = 0, NumB = 0; ///< register bank sizes
  /// Has inner loops: the VM charges and checkpoints by work done.
  bool Nested = false;
  bool Single = true;   ///< single-generator loop (result not wrapped)
  /// Straight-line collect-only code (no control flow, no reductions or
  /// buckets): the VM may run index blocks instruction-wide, dispatching
  /// each opcode once per block with a vectorizable lane loop. Traps
  /// (column bounds, integer division) are pre-validated per block and the
  /// block replays scalar on any violation, so the abort point and message
  /// stay exactly the interpreter's. Set by the compiler's post-scan.
  bool WideEligible = false;
  std::string Signature; ///< loopSignature(loop) for stats / fallback lines
};

} // namespace engine
} // namespace dmll

#endif // DMLL_ENGINE_KERNEL_H
