//===- ir/Printer.h - Human-readable IR dumps ------------------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pretty printer for the IR, in the paper's notation: multiloops render as
/// `Collect(s)(c)(f)` etc. Shared non-trivial subexpressions are printed as
/// let-bound temporaries so DAG structure (e.g. fusion results) is visible.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_IR_PRINTER_H
#define DMLL_IR_PRINTER_H

#include "ir/Expr.h"

#include <cstdint>
#include <string>

namespace dmll {

/// Renders \p E as a multi-line string.
std::string printExpr(const ExprRef &E);

/// Renders a whole program (inputs with layout hints, then the result).
std::string printProgram(const Program &P);

/// One-line summary of a multiloop: generator kinds and size, e.g.
/// "Multiloop[BucketReduce,BucketReduce](len(matrix_rows))".
std::string loopSignature(const ExprRef &Loop);

/// FNV-1a 64-bit over \p Data; hashKey renders it as 16 hex digits. The
/// hash of printProgram(P) is the key a compiled program is cached and
/// reported under (interp/Interp.h CompiledProgram::key).
uint64_t fnv1a64(const std::string &Data);
std::string hashKey(const std::string &Data);

} // namespace dmll

#endif // DMLL_IR_PRINTER_H
