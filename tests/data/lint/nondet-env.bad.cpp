// Fixture: environment reads are findings — configuration must flow
// through flags so runs reproduce.
#include <cstdlib>

int scale_override() {
  const char* env = std::getenv("DSS_SCALE");
  return env != nullptr ? std::atoi(env) : 0;
}
