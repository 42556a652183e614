// Lockstep-window scheduler.
//
// Each query process is bound to its own CPU, so there is no CPU
// multiplexing to simulate; what matters is that the processes' local clocks
// stay roughly aligned so that *inter-process* effects (coherence misses on
// shared DBMS structures, memory-controller queueing, spinlock contention)
// occur at approximately correct relative times. The scheduler therefore
// advances the processes in fixed windows: in every round each process runs
// until its local clock passes the window end, then the window advances.
// A process that raced ahead (e.g. a select() sleep jumped its clock) simply
// skips rounds until global time catches up.
//
// Within a window the jobs run in reverse order of add() — descending CPU
// id for every caller, which binds process i to CPU i — the interleaving
// the golden fixtures pin. Involuntary context switches come from the
// processes' own time slices (Process::check_timeslice), not from here.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "os/process.hpp"

namespace dss::os {

class Scheduler {
 public:
  /// One bounded unit of work (e.g. produce one tuple). Return true when the
  /// job is complete.
  using Step = std::function<bool(Process&)>;

  explicit Scheduler(u64 window_cycles = 20'000);

  /// Register a job; the scheduler takes ownership of the process. Each
  /// job needs a CPU of its own: a second job on a CPU already taken
  /// throws std::invalid_argument.
  void add(std::unique_ptr<Process> p, Step step);

  /// Run every job to completion.
  void run_all();

  [[nodiscard]] u64 global_cycle() const { return global_; }
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] Process& process(std::size_t i) { return *jobs_[i].proc; }
  [[nodiscard]] const Process& process(std::size_t i) const {
    return *jobs_[i].proc;
  }

 private:
  struct Job {
    std::unique_ptr<Process> proc;
    Step step;
    bool done = false;
  };

  u64 window_;
  u64 global_ = 0;
  std::vector<Job> jobs_;
};

}  // namespace dss::os
