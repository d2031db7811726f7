// Error handling shared by the examples: a call that fails prints what
// failed and exits with status 1, so an example that reaches its end did
// everything it printed.

#ifndef EXAMPLES_CHECK_H_
#define EXAMPLES_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/util/status.h"

inline void Check(const ld::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Check(ld::StatusOr<T> value, const char* what) {
  Check(value.status(), what);
  return std::move(value).value();
}

#endif  // EXAMPLES_CHECK_H_
