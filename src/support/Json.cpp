//===- support/Json.cpp ----------------------------------------*- C++ -*-===//

#include "support/Json.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace dmll;
using namespace dmll::json;

namespace {

class Parser {
public:
  explicit Parser(const std::string &S) : S(S) {}

  bool parseDoc(JValue &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    return Pos == S.size(); // no trailing garbage
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool lit(const char *L, JValue &Out, JValue::Kind K, bool B) {
    size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    Out.K = K;
    Out.B = B;
    return true;
  }

  /// Consumes exactly four hex digits into \p V; false on any non-hex char.
  bool hex4(unsigned &V) {
    if (Pos + 4 > S.size())
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I) {
      char C = S[Pos + I];
      unsigned D;
      if (C >= '0' && C <= '9')
        D = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        D = static_cast<unsigned>(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        D = static_cast<unsigned>(C - 'A') + 10;
      else
        return false;
      V = V * 16 + D;
    }
    Pos += 4;
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned CP) {
    if (CP < 0x80) {
      Out += static_cast<char>(CP);
    } else if (CP < 0x800) {
      Out += static_cast<char>(0xC0 | (CP >> 6));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else if (CP < 0x10000) {
      Out += static_cast<char>(0xE0 | (CP >> 12));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (CP >> 18));
      Out += static_cast<char>(0x80 | ((CP >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    }
  }

  bool string(std::string &Out) {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        if (Pos + 1 >= S.size())
          return false;
        char C = S[Pos + 1];
        if (C == 'u') {
          Pos += 2;
          unsigned CP;
          if (!hex4(CP))
            return false;
          if (CP >= 0xD800 && CP <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (Pos + 1 >= S.size() || S[Pos] != '\\' || S[Pos + 1] != 'u')
              return false;
            Pos += 2;
            unsigned Lo;
            if (!hex4(Lo) || Lo < 0xDC00 || Lo > 0xDFFF)
              return false;
            CP = 0x10000 + ((CP - 0xD800) << 10) + (Lo - 0xDC00);
          } else if (CP >= 0xDC00 && CP <= 0xDFFF) {
            return false; // lone low surrogate
          }
          appendUtf8(Out, CP);
          continue;
        }
        if (!std::strchr("\"\\/bfnrt", C))
          return false;
        Out += C == 'b'   ? '\b'
               : C == 'f' ? '\f'
               : C == 'n' ? '\n'
               : C == 'r' ? '\r'
               : C == 't' ? '\t'
                          : C;
        Pos += 2;
        continue;
      }
      Out += S[Pos++];
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number(JValue &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out.K = JValue::Number;
    try {
      Out.Num = std::stod(S.substr(Start, Pos - Start));
    } catch (...) {
      return false;
    }
    return true;
  }

  bool value(JValue &Out) {
    skipWs();
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == 'n')
      return lit("null", Out, JValue::Null, false);
    if (C == 't')
      return lit("true", Out, JValue::Bool, true);
    if (C == 'f')
      return lit("false", Out, JValue::Bool, false);
    if (C == '"') {
      Out.K = JValue::String;
      return string(Out.Str);
    }
    if (C == '[') {
      ++Pos;
      Out.K = JValue::Array;
      skipWs();
      if (Pos < S.size() && S[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        JValue V;
        if (!value(V))
          return false;
        Out.Arr.push_back(std::move(V));
        skipWs();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        break;
      }
      if (Pos >= S.size() || S[Pos] != ']')
        return false;
      ++Pos;
      return true;
    }
    if (C == '{') {
      ++Pos;
      Out.K = JValue::Object;
      skipWs();
      if (Pos < S.size() && S[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        std::string Key;
        if (!string(Key))
          return false;
        skipWs();
        if (Pos >= S.size() || S[Pos] != ':')
          return false;
        ++Pos;
        JValue V;
        if (!value(V))
          return false;
        Out.Obj.emplace_back(std::move(Key), std::move(V));
        skipWs();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        break;
      }
      if (Pos >= S.size() || S[Pos] != '}')
        return false;
      ++Pos;
      return true;
    }
    return number(Out);
  }
};

} // namespace

bool dmll::json::parse(const std::string &S, JValue &Out) {
  return Parser(S).parseDoc(Out);
}

bool dmll::json::parseFile(const std::string &Path, JValue &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  return parse(SS.str(), Out);
}

std::string dmll::json::quote(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", static_cast<unsigned>(C));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}
