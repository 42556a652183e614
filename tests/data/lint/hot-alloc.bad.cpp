// Fixture: allocation and container growth inside a hot-path function are
// findings. `classify_and_fill` is hot by name; `probe` is hot via the
// marker.
#include <memory>
#include <vector>

class Cache {
 public:
  int classify_and_fill(int key) {
    history_.push_back(key);
    return key * 2;
  }

  // dss-lint: hot-path
  std::unique_ptr<int> probe(int key) { return std::make_unique<int>(key); }

 private:
  std::vector<int> history_;
};
