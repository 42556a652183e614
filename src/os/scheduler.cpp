#include "os/scheduler.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace dss::os {

Scheduler::Scheduler(u64 window_cycles) : window_(window_cycles) {
  assert(window_cycles > 0);
}

void Scheduler::add(std::unique_ptr<Process> p, Step step) {
  assert(p != nullptr);
  for (const Job& j : jobs_) {
    if (j.proc->cpu() == p->cpu()) {
      throw std::invalid_argument("Scheduler::add: CPU " +
                                  std::to_string(p->cpu()) +
                                  " already runs a job");
    }
  }
  jobs_.push_back(Job{std::move(p), std::move(step), false});
}

void Scheduler::run_all() {
  if (jobs_.empty()) return;
  bool any_left = true;
  while (any_left) {
    const u64 target = global_ + window_;
    any_left = false;
    jobs_.front().proc->machine().begin_epoch(window_);
    for (std::size_t i = jobs_.size(); i-- > 0;) {
      Job& j = jobs_[i];
      if (j.done) continue;
      any_left = true;
      Process& p = *j.proc;
      while (!j.done && p.now() < target) {
        j.done = j.step(p);
      }
    }
    global_ = target;
  }
}

}  // namespace dss::os
