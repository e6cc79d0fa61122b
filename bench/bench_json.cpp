//===- bench/bench_json.cpp ------------------------------------*- C++ -*-===//

#include "bench_json.h"

#include "support/Json.h"

#include <cstdio>
#include <sstream>

using namespace dmll;
using namespace dmll::bench;

namespace {

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

std::string BenchJsonWriter::render() const {
  std::ostringstream OS;
  OS << "{\n  \"benchmark\": " << json::quote(Name) << ",\n  \"records\": [";
  for (size_t I = 0; I < Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    OS << (I ? "," : "") << "\n    {\"pattern\": " << json::quote(R.Pattern)
       << ", \"n\": " << R.N << ", \"threads\": " << R.Threads
       << ", \"engine\": " << json::quote(R.Engine) << ", \"ms\": " << num(R.Ms)
       << ", \"speedup\": " << num(R.Speedup) << "}";
  }
  OS << "\n  ]\n}\n";
  return OS.str();
}

bool BenchJsonWriter::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Doc = render();
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  return std::fclose(F) == 0 && Ok;
}
