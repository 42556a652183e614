// dss-lint: treat-as(src/perf/wallclock.cpp)
// Fixture: time read from the machine model's cycle count is clean, even
// under src/perf/ — no subtree may read a host clock.
struct CycleClock {
  unsigned long cycles = 0;
};

unsigned long stamp(const CycleClock& c) { return c.cycles; }
