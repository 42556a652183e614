// One full coherence-invariant sweep as a test assertion.
#pragma once

#include <gtest/gtest.h>

#include "sim/check/invariants.hpp"
#include "sim/machine.hpp"

namespace dss::sim {

/// Every invariant check::InvariantChecker sweeps (I1-I5, I7-I9) holds on
/// `m` now. The checker attaches for this one full_sweep() only: an
/// attached observer sends every access down the general path, so the
/// accesses a test makes between sweeps keep the L1 fast path. Any
/// observer `m` had is attached again afterwards.
inline ::testing::AssertionResult sweep_clean(MachineSim& m) {
  ProtocolObserver* const prev = m.observer();
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  {
    check::InvariantChecker chk(
        m, {.full_sweep_interval = 0, .fail_fast = false});
    chk.full_sweep();
    if (!chk.ok()) result = ::testing::AssertionFailure();
    for (const check::Violation& v : chk.violations()) {
      result << v.what << " (unit " << v.unit << ", proc " << v.proc << ")\n";
    }
  }
  m.set_observer(prev);
  return result;
}

}  // namespace dss::sim
