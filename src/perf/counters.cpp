#include "perf/counters.hpp"

namespace dss::perf {

const char* miss_cause_name(MissCause c) {
  switch (c) {
    case MissCause::kCold: return "cold";
    case MissCause::kCapacity: return "capacity";
    case MissCause::kCohInval: return "coh_inval";
    case MissCause::kCohDirty: return "coh_dirty";
    case MissCause::kCohClean: return "coh_clean";
  }
  return "?";
}

const char* obj_class_name(ObjClass c) {
  switch (c) {
    case ObjClass::kHeapPage: return "heap_page";
    case ObjClass::kIndexPage: return "index_page";
    case ObjClass::kBufHeader: return "buf_header";
    case ObjClass::kLockTable: return "lock_table";
    case ObjClass::kCatalog: return "catalog";
    case ObjClass::kWorkMem: return "work_mem";
    case ObjClass::kOther: return "other";
  }
  return "?";
}

u64 MissBreakdown::total() const {
  u64 s = 0;
  for (u64 v : by_cause) s += v;
  return s;
}

u64 MissBreakdown::communication() const {
  return (*this)[MissCause::kCohInval] + (*this)[MissCause::kCohDirty] +
         (*this)[MissCause::kCohClean];
}

MissBreakdown& MissBreakdown::operator+=(const MissBreakdown& o) {
  for (u32 i = 0; i < kNumMissCauses; ++i) by_cause[i] += o.by_cause[i];
  return *this;
}

u64 CpiStack::total() const {
  u64 s = 0;
  for (const auto& f : kCpiStackFields) s += this->*f.member;
  return s;
}

u64 CpiStack::mem_stall() const {
  u64 s = 0;
  for (const auto& f : kCpiStackFields) s += f.machine ? this->*f.member : 0;
  return s;
}

Counters& Counters::operator+=(const Counters& o) {
  for (const auto& f : kCounterFields) this->*f.member += o.*f.member;
  l1_miss_causes += o.l1_miss_causes;
  l2_miss_causes += o.l2_miss_causes;
  for (u32 i = 0; i < kNumObjClasses; ++i) {
    obj_misses[i] += o.obj_misses[i];
    obj_comm_misses[i] += o.obj_comm_misses[i];
  }
  stack += o.stack;
  return *this;
}

namespace {
double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

double Counters::cpi() const { return ratio(cycles, instructions); }

double Counters::cycles_per_minstr() const {
  return instructions == 0 ? 0.0
                           : static_cast<double>(cycles) /
                                 (static_cast<double>(instructions) / 1e6);
}

double Counters::l1d_per_minstr() const {
  return instructions == 0 ? 0.0
                           : static_cast<double>(l1d_misses) /
                                 (static_cast<double>(instructions) / 1e6);
}

double Counters::l2d_per_minstr() const {
  return instructions == 0 ? 0.0
                           : static_cast<double>(l2d_misses) /
                                 (static_cast<double>(instructions) / 1e6);
}

double Counters::avg_mem_latency() const {
  return ratio(mem_latency_cycles, mem_requests);
}

double Counters::vol_ctx_per_minstr() const {
  return instructions == 0 ? 0.0
                           : static_cast<double>(vol_ctx_switches) /
                                 (static_cast<double>(instructions) / 1e6);
}

double Counters::invol_ctx_per_minstr() const {
  return instructions == 0 ? 0.0
                           : static_cast<double>(invol_ctx_switches) /
                                 (static_cast<double>(instructions) / 1e6);
}

double Counters::l1d_miss_rate() const {
  return ratio(l1d_misses, loads + stores + atomics);
}

double Counters::l2d_miss_rate() const { return ratio(l2d_misses, l1d_misses); }

}  // namespace dss::perf
