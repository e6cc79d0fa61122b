//===- ir/Printer.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Printer.h"

#include "ir/Traversal.h"
#include "support/Error.h"

#include <cstdio>
#include <sstream>
#include <unordered_map>

using namespace dmll;

namespace {

const char *binOpName(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Add:
    return "+";
  case BinOpKind::Sub:
    return "-";
  case BinOpKind::Mul:
    return "*";
  case BinOpKind::Div:
    return "/";
  case BinOpKind::Mod:
    return "%";
  case BinOpKind::Min:
    return "min";
  case BinOpKind::Max:
    return "max";
  case BinOpKind::Eq:
    return "==";
  case BinOpKind::Ne:
    return "!=";
  case BinOpKind::Lt:
    return "<";
  case BinOpKind::Le:
    return "<=";
  case BinOpKind::Gt:
    return ">";
  case BinOpKind::Ge:
    return ">=";
  case BinOpKind::And:
    return "&&";
  case BinOpKind::Or:
    return "||";
  }
  dmllUnreachable("bad BinOpKind");
}

const char *unOpName(UnOpKind Op) {
  switch (Op) {
  case UnOpKind::Neg:
    return "neg";
  case UnOpKind::Not:
    return "!";
  case UnOpKind::Exp:
    return "exp";
  case UnOpKind::Log:
    return "log";
  case UnOpKind::Sqrt:
    return "sqrt";
  case UnOpKind::Abs:
    return "abs";
  }
  dmllUnreachable("bad UnOpKind");
}

const char *genName(GenKind K) {
  switch (K) {
  case GenKind::Collect:
    return "Collect";
  case GenKind::Reduce:
    return "Reduce";
  case GenKind::BucketCollect:
    return "BucketCollect";
  case GenKind::BucketReduce:
    return "BucketReduce";
  }
  dmllUnreachable("bad GenKind");
}

/// Printer with let-binding of multiloops (loops are the interesting shared
/// nodes; scalar sharing prints inline).
class PrinterImpl {
public:
  std::string run(const ExprRef &E) {
    // Let-bind every multiloop in post-order so producers print first.
    for (const ExprRef &Loop : collectMultiloops(E)) {
      std::string Name = "t" + std::to_string(Names.size());
      std::string Def = renderLoop(Loop);
      Names.emplace(Loop.get(), Name);
      Lets += Name + " = " + Def + "\n";
    }
    std::string Result = render(E, /*Root=*/true);
    return Lets + "result: " + Result + "\n";
  }

private:
  std::unordered_map<const Expr *, std::string> Names;
  std::unordered_map<const Expr *, size_t> SymIds;
  std::string Lets;

  /// Canonical symbol naming: ids are assigned in first-print order, not
  /// from the builder's process-global counter, so structurally identical
  /// programs print identically however (and whenever) they were built.
  /// The daemon's compiled-program cache keys on the hash of this text
  /// (service/Serve.h), which makes the canonical form load-bearing.
  std::string symName(const SymExpr *S) {
    auto It = SymIds.emplace(S, SymIds.size()).first;
    return S->name() + std::to_string(It->second);
  }

  std::string renderFunc(const Func &F) {
    if (!F.isSet())
      return "_";
    std::string S = "(";
    for (size_t I = 0; I < F.Params.size(); ++I) {
      if (I)
        S += ",";
      S += symName(F.Params[I].get());
    }
    S += " => " + render(F.Body, false) + ")";
    return S;
  }

  std::string renderLoop(const ExprRef &E) {
    const auto *ML = cast<MultiloopExpr>(E);
    std::string S;
    for (size_t I = 0; I < ML->numGens(); ++I) {
      const Generator &G = ML->gen(I);
      if (I)
        S += " || ";
      S += genName(G.Kind);
      S += "(" + render(ML->size(), false) + ")";
      S += renderFunc(G.Cond);
      if (G.isBucket()) {
        S += renderFunc(G.Key);
        if (G.NumKeys)
          S += "[dense:" + render(G.NumKeys, false) + "]";
      }
      S += renderFunc(G.Value);
      if (G.isReduce())
        S += renderFunc(G.Reduce);
    }
    return S;
  }

  std::string render(const ExprRef &E, bool Root) {
    if (!Root) {
      auto It = Names.find(E.get());
      if (It != Names.end())
        return It->second;
    }
    switch (E->kind()) {
    case ExprKind::ConstInt:
      return std::to_string(cast<ConstIntExpr>(E)->value());
    case ExprKind::ConstFloat: {
      std::ostringstream OS;
      OS << cast<ConstFloatExpr>(E)->value();
      return OS.str();
    }
    case ExprKind::ConstBool:
      return cast<ConstBoolExpr>(E)->value() ? "true" : "false";
    case ExprKind::Sym:
      return symName(cast<SymExpr>(E));
    case ExprKind::Input:
      return "@" + cast<InputExpr>(E)->name();
    case ExprKind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      BinOpKind Op = B->op();
      if (Op == BinOpKind::Min || Op == BinOpKind::Max)
        return std::string(binOpName(Op)) + "(" + render(B->lhs(), false) +
               "," + render(B->rhs(), false) + ")";
      return "(" + render(B->lhs(), false) + " " + binOpName(Op) + " " +
             render(B->rhs(), false) + ")";
    }
    case ExprKind::UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      return std::string(unOpName(U->op())) + "(" +
             render(U->operand(), false) + ")";
    }
    case ExprKind::Select: {
      const auto *S = cast<SelectExpr>(E);
      return "if(" + render(S->cond(), false) + ", " +
             render(S->trueVal(), false) + ", " +
             render(S->falseVal(), false) + ")";
    }
    case ExprKind::Cast:
      return "cast[" + E->type()->str() + "](" +
             render(cast<CastExpr>(E)->operand(), false) + ")";
    case ExprKind::ArrayRead: {
      const auto *R = cast<ArrayReadExpr>(E);
      return render(R->array(), false) + "(" + render(R->index(), false) +
             ")";
    }
    case ExprKind::ArrayLen:
      return "len(" + render(cast<ArrayLenExpr>(E)->array(), false) + ")";
    case ExprKind::Flatten:
      return "flatten(" + render(cast<FlattenExpr>(E)->array(), false) + ")";
    case ExprKind::MakeStruct: {
      const auto &Fields = E->type()->fields();
      std::string S = "{";
      for (size_t I = 0; I < Fields.size(); ++I) {
        if (I)
          S += ", ";
        S += Fields[I].Name + ": " + render(E->ops()[I], false);
      }
      return S + "}";
    }
    case ExprKind::GetField: {
      const auto *G = cast<GetFieldExpr>(E);
      return render(G->base(), false) + "." + G->field();
    }
    case ExprKind::Multiloop:
      return renderLoop(E);
    case ExprKind::LoopOut: {
      const auto *LO = cast<LoopOutExpr>(E);
      return render(LO->loop(), false) + ".out" +
             std::to_string(LO->index());
    }
    }
    dmllUnreachable("bad ExprKind");
  }
};

} // namespace

std::string dmll::printExpr(const ExprRef &E) { return PrinterImpl().run(E); }

std::string dmll::printProgram(const Program &P) {
  std::string S;
  for (const auto &I : P.Inputs) {
    S += "input @" + I->name() + " : " + I->type()->str();
    switch (I->hint()) {
    case LayoutHint::Default:
      break;
    case LayoutHint::Local:
      S += " [local]";
      break;
    case LayoutHint::Partitioned:
      S += " [partitioned]";
      break;
    }
    S += "\n";
  }
  return S + printExpr(P.Result);
}

std::string dmll::loopSignature(const ExprRef &Loop) {
  const auto *ML = cast<MultiloopExpr>(Loop);
  std::string S = "Multiloop[";
  for (size_t I = 0; I < ML->numGens(); ++I) {
    if (I)
      S += ",";
    S += genName(ML->gen(I).Kind);
  }
  return S + "]";
}

uint64_t dmll::fnv1a64(const std::string &Data) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string dmll::hashKey(const std::string &Data) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(Data)));
  return Buf;
}
