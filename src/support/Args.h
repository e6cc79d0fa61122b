//===- support/Args.h - Command-line flag values ---------------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one `--flag=VALUE` / `--flag VALUE` scanner every bench, example and
/// tool uses for its path-valued flags (`--trace-out`, `--profile-out`,
/// `--json-out`, `--tune-out`, the telemetry flags, ...), so they all accept
/// both spellings alike.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_SUPPORT_ARGS_H
#define DMLL_SUPPORT_ARGS_H

#include <cstring>
#include <string>

namespace dmll {

/// Scans \p Argv for `--<Flag>=VALUE` or `--<Flag> VALUE` and returns the
/// first VALUE; "" when the flag is absent or dangles at the end of argv.
inline std::string flagValue(int Argc, char **Argv, const char *Flag) {
  std::string Bare = std::string("--") + Flag;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, Bare.c_str(), Bare.size()) == 0 &&
        A[Bare.size()] == '=')
      return A + Bare.size() + 1;
    if (Bare == A && I + 1 < Argc)
      return Argv[I + 1];
  }
  return "";
}

} // namespace dmll

#endif // DMLL_SUPPORT_ARGS_H
