// Shared buffer pool, modelled on PostgreSQL 6.5/7.0's buffer manager:
// a hash table from (relation, page) to frame, per-frame buffer headers with
// reference counts, a clock-sweep replacement policy, and one global
// BufMgrLock spinlock around all of it.
//
// The pin-time header update (refcount++) is a *write to shared memory* that
// every concurrently-scanning backend performs on the same headers — this,
// together with the lock tables, is the "metadata consistency" communication
// the paper blames for the multi-process slowdowns.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "db/costs.hpp"
#include "db/shm.hpp"
#include "db/spinlock.hpp"
#include "os/process.hpp"
#include "util/flatmap.hpp"

namespace dss::db {

class BufferPool {
 public:
  /// Key identifying a disk page: relation id (tables and indexes share the
  /// id space) and page number.
  struct PageKey {
    u32 rel_id;
    u32 page_no;
    [[nodiscard]] u64 packed() const {
      return (static_cast<u64>(rel_id) << 32) | page_no;
    }
  };

  BufferPool(ShmAllocator& shm, u32 num_frames, SpinPolicy spin = {});

  /// Map a page into a frame without emitting references (used to prewarm
  /// the pool before measurement, matching the paper's steady state where
  /// the 400 MB database fits the 512 MB pool).
  void prewarm(PageKey key);

  /// Pin a page (ReadBuffer): BufMgrLock, hash probe, header update.
  /// Returns the simulated address of the frame's data. If the page is not
  /// resident a clock-sweep victim is evicted and a synchronous "disk read"
  /// is charged (blocking I/O = one voluntary context switch).
  sim::SimAddr pin(os::Process& p, PageKey key);

  /// Unpin a page (ReleaseBuffer).
  void unpin(os::Process& p, PageKey key);

  /// Extend the relation with a brand-new page (smgr extend): maps a frame
  /// without a disk read, returns it pinned. Used by heap append and B-tree
  /// splits.
  sim::SimAddr allocate(os::Process& p, PageKey key);

  /// Frame data address for a resident page (host-side; asserts residency).
  [[nodiscard]] sim::SimAddr frame_addr(PageKey key) const;

  [[nodiscard]] u32 num_frames() const { return num_frames_; }
  [[nodiscard]] u64 hits() const { return hits_; }
  [[nodiscard]] u64 misses() const { return misses_; }
  [[nodiscard]] SpinLock& bufmgr_lock() { return lock_; }

  /// Host-side residency check (tests).
  [[nodiscard]] bool resident(PageKey key) const {
    return map_.find(key.packed()) != nullptr;
  }
  [[nodiscard]] u32 pin_count(PageKey key) const;

  /// Relation-id -> object-class mapping used to tag frame data ranges in
  /// the address-class registry as pages are mapped in (heap vs. index
  /// pages live in the same pool). Without one, frames tag as kHeapPage.
  using PageClassifier = std::function<perf::ObjClass(u32 rel_id)>;
  void set_page_classifier(PageClassifier fn);

 private:
  struct Frame {
    u64 key_packed = 0;
    bool valid = false;
    u32 pins = 0;
    u32 usage = 0;
  };

  [[nodiscard]] u32 find_victim(os::Process& p);
  void touch_hash(os::Process& p, u64 packed);
  void touch_header(os::Process& p, u32 frame);
  /// Re-tag frame `f`'s data range for the relation now mapped into it.
  void tag_frame(u32 f, u32 rel_id);

  static constexpr u32 kHeaderBytes = 64;  ///< one BufferDesc

  /// LRU freelist bookkeeping (PostgreSQL 6.5 kept a doubly-linked shared
  /// freelist relinked on every pin and unpin): the head line plus the
  /// neighbours' link words are written under the lock, making them a
  /// global coherence hotspot across scanning backends.
  void touch_freelist(os::Process& p, u32 frame);

  SpinLock lock_;
  u32 num_frames_;
  u32 num_buckets_;
  sim::SimAddr data_base_;
  sim::SimAddr header_base_;
  sim::SimAddr hash_base_;
  sim::SimAddr freelist_head_;
  std::vector<Frame> frames_;
  util::FlatMap<u32> map_;  ///< packed key -> frame
  sim::AddrClassRegistry* registry_;  ///< from the ShmAllocator; may be null
  PageClassifier classifier_;
  u32 clock_hand_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace dss::db
