// Fixture: wall-clock reads are findings — simulated time must come from
// the machine model.
#include <chrono>

unsigned long stamp() {
  return static_cast<unsigned long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

int jitter() { return rand() % 7; }
