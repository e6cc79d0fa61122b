//===- transform/Soa.h - AoS-to-SoA and dead field elimination -*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Array-of-struct inputs whose elements are only consumed field-wise are
/// rewritten to struct-of-array form, keeping only the fields that are
/// actually read (dead field elimination). Section 5: these optimizations
/// "reduce complex data structures to simple arrays of primitives", enable
/// vectorization, and simplify the stencil analysis; Table 2 credits them
/// for TPC-H Query 1. Callers convert input Values with adaptInputs()
/// (runtime/Executor.h), which applies aosToSoa() to each converted input.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_TRANSFORM_SOA_H
#define DMLL_TRANSFORM_SOA_H

#include "interp/Value.h"
#include "ir/Expr.h"

#include <map>
#include <string>
#include <vector>

namespace dmll {

/// Outcome of the pass.
struct SoaResult {
  Program P;
  /// Input name -> fields kept (in new struct order). Inputs not listed
  /// were left untouched.
  std::map<std::string, std::vector<std::string>> Converted;

  bool changed() const { return !Converted.empty(); }
};

/// Applies AoS-to-SoA + DFE to every eligible Array[Struct] input of \p P.
SoaResult soaTransform(const Program &P);

/// Converts an AoS runtime value (array of structs of type \p ElemTy) into
/// the SoA form selected by the pass (struct of arrays over \p KeptFields).
Value aosToSoa(const Value &Aos, const Type &ElemTy,
               const std::vector<std::string> &KeptFields);

} // namespace dmll

#endif // DMLL_TRANSFORM_SOA_H
