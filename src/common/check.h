#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace rlqvo {
namespace internal {

/// \brief Accumulates a failure message and aborts on destruction.
///
/// Used by the RLQVO_CHECK family for programmer-error assertions (invariants
/// that indicate a bug, not a recoverable condition).
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* expr) {
    stream_ << "[FATAL] " << file << ":" << line << " Check failed: " << expr
            << " ";
  }
  [[noreturn]] ~FatalLogMessage() {
    std::cerr << stream_.str() << '\n' << std::flush;
    std::abort();
  }
  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Lets the ternary in RLQVO_CHECK produce void on both branches while still
/// allowing `RLQVO_CHECK(x) << "message"` (glog's voidify idiom): `&` binds
/// more loosely than `<<`, so the streamed message is built first.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace rlqvo

/// Aborts with a message if `cond` is false. For invariants / programmer
/// errors only; recoverable failures must go through Status. Supports
/// streaming extra context: RLQVO_CHECK(p != nullptr) << "details".
#define RLQVO_CHECK(cond)                                          \
  (cond) ? (void)0                                                 \
         : ::rlqvo::internal::LogMessageVoidify() &                \
               ::rlqvo::internal::FatalLogMessage(__FILE__, __LINE__, #cond) \
                   .stream()

#define RLQVO_CHECK_BINOP(a, b, op)                                       \
  ((a)op(b)) ? (void)0                                                    \
             : ::rlqvo::internal::LogMessageVoidify() &                   \
                   ::rlqvo::internal::FatalLogMessage(                    \
                       __FILE__, __LINE__, #a " " #op " " #b)             \
                       .stream()

#define RLQVO_CHECK_EQ(a, b) RLQVO_CHECK_BINOP(a, b, ==)
#define RLQVO_CHECK_NE(a, b) RLQVO_CHECK_BINOP(a, b, !=)
#define RLQVO_CHECK_LT(a, b) RLQVO_CHECK_BINOP(a, b, <)
#define RLQVO_CHECK_LE(a, b) RLQVO_CHECK_BINOP(a, b, <=)
#define RLQVO_CHECK_GT(a, b) RLQVO_CHECK_BINOP(a, b, >)
#define RLQVO_CHECK_GE(a, b) RLQVO_CHECK_BINOP(a, b, >=)

#ifndef NDEBUG
#define RLQVO_DCHECK(cond) RLQVO_CHECK(cond)
#define RLQVO_DCHECK_EQ(a, b) RLQVO_CHECK_EQ(a, b)
#define RLQVO_DCHECK_LT(a, b) RLQVO_CHECK_LT(a, b)
#define RLQVO_DCHECK_LE(a, b) RLQVO_CHECK_LE(a, b)
#define RLQVO_DCHECK_GE(a, b) RLQVO_CHECK_GE(a, b)
#else
#define RLQVO_DCHECK(cond) \
  while (false) RLQVO_CHECK(cond)
#define RLQVO_DCHECK_EQ(a, b) \
  while (false) RLQVO_CHECK_EQ(a, b)
#define RLQVO_DCHECK_LT(a, b) \
  while (false) RLQVO_CHECK_LT(a, b)
#define RLQVO_DCHECK_LE(a, b) \
  while (false) RLQVO_CHECK_LE(a, b)
#define RLQVO_DCHECK_GE(a, b) \
  while (false) RLQVO_CHECK_GE(a, b)
#endif
