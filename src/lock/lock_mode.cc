#include "src/lock/lock_mode.h"

#include <cassert>

namespace tabs::lock {

CompatibilityMatrix CompatibilityMatrix::SharedExclusive() {
  CompatibilityMatrix m(2);
  m.SetCompatible(kShared, kShared);
  return m;
}

CompatibilityMatrix::CompatibilityMatrix(int mode_count)
    : mode_count_(mode_count), compat_(static_cast<size_t>(mode_count) * mode_count, false) {
  assert(mode_count >= 2 && "modes 0/1 are reserved for shared/exclusive");
}

void CompatibilityMatrix::SetCompatible(LockMode a, LockMode b, bool compatible) {
  assert(a < mode_count_ && b < mode_count_);
  compat_[static_cast<size_t>(a) * mode_count_ + b] = compatible;
  compat_[static_cast<size_t>(b) * mode_count_ + a] = compatible;
}

bool CompatibilityMatrix::Compatible(LockMode requested, LockMode held) const {
  assert(requested < mode_count_ && held < mode_count_);
  return compat_[static_cast<size_t>(requested) * mode_count_ + held];
}

}  // namespace tabs::lock
