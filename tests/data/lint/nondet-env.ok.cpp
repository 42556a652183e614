// dss-lint: treat-as(src/perf/hostinfo.cpp)
// Fixture: configuration passed in as a parameter (from a flag) is clean,
// even under src/perf/ — no subtree may read the environment.
const char* host_tag(const char* flag_value) { return flag_value; }
