#include "db/bufferpool.hpp"

#include <cassert>
#include <stdexcept>

#include "db/schema.hpp"

namespace dss::db {

namespace {
u32 next_pow2(u32 v) {
  u32 p = 1;
  while (p < v) p <<= 1;
  return p;
}
u64 mix_hash(u64 k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  return k;
}
}  // namespace

BufferPool::BufferPool(ShmAllocator& shm, u32 num_frames, SpinPolicy spin)
    : lock_("BufMgrLock",
            shm.alloc(64, 64, perf::ObjClass::kBufHeader), spin),
      num_frames_(num_frames),
      num_buckets_(next_pow2(num_frames * 2)),
      data_base_(shm.alloc(static_cast<u64>(num_frames) * kPageBytes,
                           kPageBytes, perf::ObjClass::kHeapPage)),
      header_base_(shm.alloc(static_cast<u64>(num_frames) * kHeaderBytes, 64,
                             perf::ObjClass::kBufHeader)),
      hash_base_(shm.alloc(static_cast<u64>(num_buckets_) * 16, 64,
                           perf::ObjClass::kBufHeader)),
      freelist_head_(shm.alloc(64, 64, perf::ObjClass::kBufHeader)),
      frames_(num_frames),
      registry_(shm.registry()) {
  assert(num_frames_ > 0);
  // The map never holds more than one entry per frame: sizing it once keeps
  // its load at or under one half and spares the prewarm any rehash.
  map_.reserve(num_frames_);
}

void BufferPool::set_page_classifier(PageClassifier fn) {
  classifier_ = std::move(fn);
}

void BufferPool::tag_frame(u32 f, u32 rel_id) {
  if (registry_ == nullptr) return;
  const perf::ObjClass cls =
      classifier_ ? classifier_(rel_id) : perf::ObjClass::kHeapPage;
  registry_->add(data_base_ + static_cast<u64>(f) * kPageBytes, kPageBytes,
                 cls);
}

void BufferPool::touch_freelist(os::Process& p, u32 frame) {
  // Unlink/relink the buffer on the shared LRU freelist: read-modify-write
  // of the list head and of the neighbour header's link words. Every
  // backend's every pin/unpin hits the same head line — the classic
  // PostgreSQL 6.5 buffer-manager hotspot.
  p.read(freelist_head_, 16);
  p.write(freelist_head_, 16);
  const u32 neighbour = (frame + 1) % num_frames_;
  p.write(header_base_ + static_cast<u64>(neighbour) * kHeaderBytes + 48, 8);
}

void BufferPool::prewarm(PageKey key) {
  const u64 packed = key.packed();
  if (map_.find(packed) != nullptr) return;
  if (map_.size() >= num_frames_) {
    throw std::runtime_error("prewarm: buffer pool smaller than database");
  }
  const u32 f = static_cast<u32>(map_.size());
  frames_[f] = Frame{packed, true, 0, 1};
  map_.get_or_insert(packed) = f;
  tag_frame(f, key.rel_id);
}

void BufferPool::touch_hash(os::Process& p, u64 packed) {
  const u32 bucket = static_cast<u32>(mix_hash(packed)) & (num_buckets_ - 1);
  p.instr(cost::kHashProbe);
  p.read(hash_base_ + static_cast<u64>(bucket) * 16, 16);
}

void BufferPool::touch_header(os::Process& p, u32 frame) {
  const sim::SimAddr h = header_base_ + static_cast<u64>(frame) * kHeaderBytes;
  // Read the descriptor, then bump the refcount: the read-dirty-then-write
  // pattern the V-Class migratory optimization targets.
  p.read(h, 16);
  p.write(h + 8, 8);
}

u32 BufferPool::find_victim(os::Process& p) {
  // Clock sweep over the headers (lock already held).
  for (u32 scanned = 0; scanned < 2 * num_frames_; ++scanned) {
    Frame& f = frames_[clock_hand_];
    const u32 idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % num_frames_;
    p.read(header_base_ + static_cast<u64>(idx) * kHeaderBytes, 16);
    if (!f.valid) return idx;
    if (f.pins == 0) {
      if (f.usage == 0) return idx;
      --f.usage;
      p.write(header_base_ + static_cast<u64>(idx) * kHeaderBytes + 12, 4);
    }
  }
  throw std::runtime_error("buffer pool: all frames pinned");
}

sim::SimAddr BufferPool::pin(os::Process& p, PageKey key) {
  const u64 packed = key.packed();
  p.instr(cost::kPin);
  lock_.acquire(p);
  touch_hash(p, packed);

  u32 f;
  if (const u32* hit = map_.find(packed)) {
    f = *hit;
    ++hits_;
  } else {
    ++misses_;
    f = find_victim(p);
    if (frames_[f].valid) map_.erase(frames_[f].key_packed);
    frames_[f] = Frame{packed, true, 0, 0};
    map_.get_or_insert(packed) = f;
    tag_frame(f, key.rel_id);
    // Synchronous read() from disk: the backend blocks — a voluntary
    // context switch and ~4 ms of wall time at late-90s disk speed — then
    // copies the page into the frame.
    lock_.release(p);
    p.instr(50'000);
    const double mhz = p.machine().config().clock_mhz;
    p.select_sleep(static_cast<u64>(4'000.0 * mhz));
    --p.counters().select_sleeps;  // an I/O block, not a select() backoff
    // Touch the whole frame (the copy-in).
    const sim::SimAddr base = data_base_ + static_cast<u64>(f) * kPageBytes;
    for (u32 off = 0; off < kPageBytes; off += 256) p.write(base + off, 8);
    lock_.acquire(p);
  }
  Frame& fr = frames_[f];
  ++fr.pins;
  ++fr.usage;
  touch_header(p, f);
  touch_freelist(p, f);
  ++p.counters().buffer_pins;
  lock_.release(p);
  return data_base_ + static_cast<u64>(f) * kPageBytes;
}

sim::SimAddr BufferPool::allocate(os::Process& p, PageKey key) {
  const u64 packed = key.packed();
  p.instr(cost::kPin);
  lock_.acquire(p);
  assert(map_.find(packed) == nullptr && "allocate of an existing page");
  const u32 f = find_victim(p);
  if (frames_[f].valid) map_.erase(frames_[f].key_packed);
  frames_[f] = Frame{packed, true, 1, 1};
  map_.get_or_insert(packed) = f;
  tag_frame(f, key.rel_id);
  touch_header(p, f);
  touch_freelist(p, f);
  ++p.counters().buffer_pins;
  lock_.release(p);
  // Zero-initialize the new page (PageInit).
  const sim::SimAddr base = data_base_ + static_cast<u64>(f) * kPageBytes;
  p.instr(800);
  for (u32 off = 0; off < kPageBytes; off += 256) p.write(base + off, 8);
  return base;
}

void BufferPool::unpin(os::Process& p, PageKey key) {
  const u64 packed = key.packed();
  p.instr(cost::kUnpin);
  lock_.acquire(p);
  const u32* f = map_.find(packed);
  assert(f != nullptr && "unpin of non-resident page");
  Frame& fr = frames_[*f];
  assert(fr.pins > 0 && "unpin of unpinned page");
  --fr.pins;
  touch_header(p, *f);
  touch_freelist(p, *f);
  lock_.release(p);
}

sim::SimAddr BufferPool::frame_addr(PageKey key) const {
  const u32* f = map_.find(key.packed());
  assert(f != nullptr && "frame_addr of non-resident page");
  return data_base_ + static_cast<u64>(*f) * kPageBytes;
}

u32 BufferPool::pin_count(PageKey key) const {
  const u32* f = map_.find(key.packed());
  return f == nullptr ? 0 : frames_[*f].pins;
}

}  // namespace dss::db
