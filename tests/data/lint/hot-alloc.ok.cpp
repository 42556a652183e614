// Fixture: the same growth calls are fine outside hot paths, and hot
// functions that only index preallocated storage are clean.
#include <memory>
#include <vector>

class Cache {
 public:
  void warm(int key) { history_.push_back(key); }

  int classify_and_fill(int key) const {
    return history_[key % history_.size()];
  }

 private:
  std::vector<int> history_;
};
