//===- sim/Calibration.cpp -------------------------------------*- C++ -*-===//

#include "sim/Calibration.h"

#include "sim/Simulator.h"

#include <vector>

using namespace dmll;

namespace {

void addValue(SizeEnv &Env, const std::string &Path, const Value &V,
              const TypeRef &Ty) {
  if (Ty->isArray() && V.isArray()) {
    Env.ArrayLens[Path] = static_cast<double>(V.arraySize());
    return;
  }
  if (Ty->isStruct() && V.isStruct()) {
    const std::vector<Type::Field> &Fields = Ty->fields();
    const std::vector<Value> &Vals = V.strct()->Fields;
    for (size_t I = 0; I < Fields.size() && I < Vals.size(); ++I)
      addValue(Env, Path + "." + Fields[I].Name, Vals[I], Fields[I].Ty);
    return;
  }
  if (Ty->isScalar()) {
    if (V.isInt())
      Env.Scalars[Path] = static_cast<double>(V.asInt());
    else if (V.isFloat())
      Env.Scalars[Path] = V.asFloat();
    else if (V.isBool())
      Env.Scalars[Path] = V.asBool() ? 1.0 : 0.0;
  }
}

} // namespace

SizeEnv dmll::sizeEnvFromInputs(const Program &P, const InputMap &Inputs) {
  SizeEnv Env;
  for (const auto &In : P.Inputs) {
    auto It = Inputs.find(In->name());
    if (It == Inputs.end())
      continue;
    addValue(Env, In->name(), It->second, In->type());
  }
  return Env;
}

CalibrationReport dmll::calibrate(const Program &P, const PartitionInfo &Info,
                                  const SizeEnv &Env,
                                  const std::vector<LoopProfile> &Measured,
                                  const MachineModel &M, int CoresUsed) {
  CalibrationReport R;
  R.Machine = M.Name;
  R.Cores = CoresUsed < 1 ? 1 : CoresUsed;

  std::vector<LoopCost> Costs = analyzeCosts(P, Info, Env);
  std::vector<bool> Used(Costs.size(), false);
  Discipline D = Discipline::dmll();

  for (const LoopProfile &LP : Measured) {
    LoopCalibration C;
    C.Loop = LP.Loop;
    C.Engine = LP.Engine;
    C.Iters = LP.Iters;
    C.MeasuredMs = LP.Millis;
    C.Parallel = LP.Chunks > 1;
    for (size_t I = 0; I < Costs.size(); ++I) {
      if (Used[I] || Costs[I].Signature != LP.Loop)
        continue;
      Used[I] = true;
      LoopCost LC = Costs[I];
      // The executor knows the real trip count; the SizeEnv estimate only
      // decides relative per-iteration traffic shares.
      LC.Iters = static_cast<double>(LP.Iters);
      SimResult Sim = simulateShared({LC}, M, R.Cores,
                                     MemPolicy::Partitioned, D);
      C.PredictedMs = Sim.Ms;
      C.Matched = true;
      break;
    }
    if (C.Matched && C.PredictedMs > 0)
      C.Ratio = C.MeasuredMs / C.PredictedMs;
    if (C.Matched) {
      R.MeasuredMs += C.MeasuredMs;
      R.PredictedMs += C.PredictedMs;
    }
    R.Loops.push_back(std::move(C));
  }
  return R;
}
