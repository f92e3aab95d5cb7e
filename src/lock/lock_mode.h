// Lock modes and type-specific compatibility relations.
//
// TABS synchronizes transactions by locking (Section 2.1.2). The default is
// classic shared/exclusive locking, but the design point the paper argues for
// is *type-specific* locking: a data server may define its own lock modes and
// its own compatibility relation to expose more concurrency (Schwarz &
// Spector's typed locking). CompatibilityMatrix is that relation.

#ifndef TABS_LOCK_LOCK_MODE_H_
#define TABS_LOCK_LOCK_MODE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tabs::lock {

// A lock mode is a small integer index into the server's compatibility
// matrix. The two standard modes exist in every matrix.
using LockMode = std::uint8_t;
constexpr LockMode kShared = 0;
constexpr LockMode kExclusive = 1;

class CompatibilityMatrix {
 public:
  // The standard read/write relation: S-S compatible, anything with X not.
  static CompatibilityMatrix SharedExclusive();

  // A matrix with `mode_count` modes, initially nothing compatible. Modes 0
  // and 1 should keep their shared/exclusive meaning by convention.
  explicit CompatibilityMatrix(int mode_count);

  int mode_count() const { return mode_count_; }
  void SetCompatible(LockMode a, LockMode b, bool compatible = true);
  bool Compatible(LockMode requested, LockMode held) const;

 private:
  int mode_count_;
  std::vector<bool> compat_;  // mode_count_ x mode_count_, row-major
};

}  // namespace tabs::lock

#endif  // TABS_LOCK_LOCK_MODE_H_
