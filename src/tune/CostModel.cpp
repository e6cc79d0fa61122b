//===- tune/CostModel.cpp --------------------------------------*- C++ -*-===//

#include "tune/CostModel.h"

#include "runtime/ThreadPool.h"
#include "sim/Simulator.h"

#include <algorithm>

using namespace dmll;
using namespace dmll::tune;

TuneCostModel::TuneCostModel(std::vector<LoopCost> CostList,
                             const MachineModel &M, unsigned RunThreads,
                             int64_t RunMinChunk)
    : M(M), RunThreads(RunThreads ? RunThreads : 1),
      RunMinChunk(RunMinChunk > 0 ? RunMinChunk : 1024) {
  // First-come keying mirrors sim/Calibration.h's matching: repeated
  // signatures share one cost entry.
  for (LoopCost &LC : CostList)
    Costs.emplace(LC.Signature, std::move(LC));
}

const LoopCost *TuneCostModel::costFor(const std::string &Sig) const {
  auto It = Costs.find(Sig);
  return It == Costs.end() ? nullptr : &It->second;
}

unsigned TuneCostModel::threadsFor(const LoopDecision &D) const {
  return D.Threads ? std::min(RunThreads, D.Threads) : RunThreads;
}

int64_t TuneCostModel::chunksFor(const LoopCost &LC, const LoopDecision &D,
                                 int64_t N) const {
  return chunkCount(N, LC.FlopsPerIter, threadsFor(D),
                    D.MinChunk > 0 ? D.MinChunk : RunMinChunk);
}

double TuneCostModel::rawPredict(const LoopCost &LC,
                                 const LoopDecision &D) const {
  int64_t NumChunks = chunksFor(LC, D, static_cast<int64_t>(LC.Iters));
  Discipline Disc = Discipline::dmll();
  int Cores = NumChunks > 1 ? static_cast<int>(threadsFor(D)) : 1;
  SimResult R = simulateShared({LC}, M, Cores, MemPolicy::Partitioned, Disc);
  // simulateShared already charges ~2 tasks/worker/loop; charge the actual
  // chunk count instead so chunk-size candidates differentiate.
  double Ms = R.Ms + Disc.PerTaskOverheadMs * static_cast<double>(NumChunks);
  return Ms > 0 ? Ms : 1e-6;
}

double TuneCostModel::predict(const std::string &Sig, const LoopDecision &D,
                              bool Kernel) const {
  const LoopCost *LC = costFor(Sig);
  if (!LC)
    return 0;
  double Raw = rawPredict(*LC, D);
  const char *Cls = Kernel ? "/kernel" : "/interp";
  const char *Other = Kernel ? "/interp" : "/kernel";
  auto It = Ratios.find(Sig + Cls);
  if (It != Ratios.end())
    return Raw * It->second;
  auto Ot = Ratios.find(Sig + Other);
  if (Ot != Ratios.end())
    return Raw * (Kernel ? Ot->second / InterpPenalty
                         : Ot->second * InterpPenalty);
  return Raw * (Kernel ? 1.0 : InterpPenalty);
}

void TuneCostModel::observe(const std::string &Sig, bool Kernel,
                            const LoopDecision &D, double MeasuredMs) {
  const LoopCost *LC = costFor(Sig);
  if (!LC || MeasuredMs <= 0)
    return;
  double Raw = rawPredict(*LC, D);
  Ratios[Sig + (Kernel ? "/kernel" : "/interp")] = MeasuredMs / Raw;
}
