//===- support/Once.h - A value built once, on first demand ----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Once<T>: a per-key once-latch. The first caller of get() builds the
/// value under the latch's own lock; concurrent callers wait for that one
/// build and share it, and later callers take it without building. A build
/// that throws leaves the latch empty for the next caller to retry. Not
/// std::call_once: under ThreadSanitizer a call that throws leaves the
/// flag's waiters blocked for good. The daemon keeps one per catalog app,
/// a CompiledProgram one per bound input set, so a cold build holds no
/// lock but its own, and a run one per closed loop result, which a trap
/// leaves empty for the next reader to re-raise.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_SUPPORT_ONCE_H
#define DMLL_SUPPORT_ONCE_H

#include <atomic>
#include <mutex>
#include <optional>

namespace dmll {

template <typename T> class Once {
public:
  /// The value, built by \p Make on the first call. \p Built, when set,
  /// tells whether this call ran the build.
  template <typename F> const T &get(F &&Make, bool *Built = nullptr) {
    std::lock_guard<std::mutex> L(M);
    if (!V) {
      V.emplace(Make());
      Ready.store(true, std::memory_order_release);
      if (Built)
        *Built = true;
    }
    return *V;
  }

  /// True once a build has finished; never waits.
  bool ready() const { return Ready.load(std::memory_order_acquire); }

private:
  std::mutex M;
  std::optional<T> V;
  std::atomic<bool> Ready{false};
};

} // namespace dmll

#endif // DMLL_SUPPORT_ONCE_H
