//===- support/Json.h - Minimal JSON reader and string quoter --*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the machine-readable documents
/// this repo produces itself: Chrome traces (observe/Trace.h), benchmark
/// records (bench/bench_json.h), and execution profiles
/// (runtime/ProfileJson.h). tools/dmll-prof diffs profiles through it and
/// the observability tests round-trip every exporter through it, so a
/// document that parses here is one our own tools can consume.
///
/// Strict enough for the purpose (rejects trailing garbage, malformed
/// escapes, unterminated containers), not a validator: numbers use std::stod
/// semantics. \uXXXX escapes decode to UTF-8, including surrogate pairs;
/// lone surrogates and non-hex digits are rejected as malformed.
///
/// The writing side is one string quoter, quote(), shared by every
/// exporter (traces, events, profiles, tuning artifacts, dmll-serve frames,
/// benchmark records), so all of them escape strings alike.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_SUPPORT_JSON_H
#define DMLL_SUPPORT_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmll {
namespace json {

/// One parsed JSON value; containers own their children by value.
struct JValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JValue> Arr;
  std::vector<std::pair<std::string, JValue>> Obj;

  /// First field of an Object with key \p Key, or nullptr.
  const JValue *field(const std::string &Key) const {
    for (const auto &[F, V] : Obj)
      if (F == Key)
        return &V;
    return nullptr;
  }

  /// field(Key)->Num if present and numeric, else \p Default.
  double numField(const std::string &Key, double Default = 0) const {
    const JValue *V = field(Key);
    return V && V->K == Number ? V->Num : Default;
  }

  /// field(Key)->Str if present and a string, else "".
  std::string strField(const std::string &Key) const {
    const JValue *V = field(Key);
    return V && V->K == String ? V->Str : std::string();
  }
};

/// Parses \p S into \p Out; false on any syntax error or trailing garbage.
bool parse(const std::string &S, JValue &Out);

/// Reads and parses a whole file; false on I/O or parse failure.
bool parseFile(const std::string &Path, JValue &Out);

/// \p S as a JSON string literal: `"` and `\` are backslash-escaped,
/// newline, carriage return and tab use their short escapes, other control
/// characters become `\u00XX`, and every other byte (UTF-8 sequences
/// included) passes through unchanged.
std::string quote(std::string_view S);

} // namespace json
} // namespace dmll

#endif // DMLL_SUPPORT_JSON_H
