// Process-wide recycling pool for wire-frame buffers. The message hot path
// (RPC envelope -> network payload -> NTCP body) encodes into
// std::vector<std::uint8_t> frames; without pooling every request/response
// pair mints several fresh heap buffers per transaction. AcquireFrame hands
// back a previously released buffer with its capacity intact (knowdy-style
// reusable fixed buffers), so a steady-state propose/execute step mints
// zero new frames — the property E13's frames_per_step counter gates on.
//
// The pool is magazine-style: every thread keeps a small bounded cache per
// size class, and Acquire/Release touch only that cache. A cache that runs
// empty (or full) trades one batch of frames with the process-wide depot,
// so frames that one thread acquires and another releases (a request
// encoded by a worker, freed by a network delivery thread) flow back
// through the depot at one lock acquisition per batch. A thread hands its
// cached frames to the depot when it exits, so short-lived threads (farm
// workers, thread-per-site step threads) do not strand or re-mint them.
//
// util.FramePool guards only the depot and the per-thread stats registry.
// It is a leaf in the lock-order graph: nothing is acquired while holding
// it, so the pool is safe to call from any layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/mutex.h"

namespace nees::util {

class FramePool {
 public:
  struct Stats {
    std::uint64_t minted = 0;    // no cached frame: new buffer allocated
    std::uint64_t reused = 0;    // cache or depot hit
    // Buffers handed back via Release that the pool kept. A frame freed
    // because the depot was full (when its cache flushed or its thread
    // exited) is not counted, so returned - reused is the number of frames
    // the pool holds across all caches and the depot.
    std::uint64_t returned = 0;
  };

  /// Frames one thread caches per size class before it trades a batch with
  /// the depot.
  static constexpr std::size_t kThreadCacheFrames = 64;
  /// Frames moved per depot trade: a full cache flushes this many; an empty
  /// one refills up to this many, but no more than the depot's size over
  /// the number of live threads, so one refill does not leave the next
  /// thread an empty depot (and a mint) while the frames sit idle.
  static constexpr std::size_t kBatchFrames = 32;
  /// Depot cap per size class; frames beyond it are freed.
  static constexpr std::size_t kMaxPooled = 4096;

  static FramePool& Instance();

  /// Returns an empty buffer, recycled when possible, with at least
  /// `reserve` bytes of capacity.
  std::vector<std::uint8_t> Acquire(std::size_t reserve = 0);

  /// Hands a buffer back for reuse. Contents are discarded; capacity is
  /// kept. Buffers that would overflow the depot are simply freed.
  void Release(std::vector<std::uint8_t>&& frame);

  /// Totals over every thread that has used the pool, live or exited.
  Stats stats() const;

 private:
  struct ThreadCache;
  using Frame = std::vector<std::uint8_t>;
  using FrameList = std::vector<Frame>;

  /// Buffers at or below this capacity are the small class. Keeping two
  /// size classes stops a large request (batch envelope, multi-KB payload)
  /// from repeatedly regrowing a recycled small buffer: a large request
  /// that finds only small frames mints fresh instead, and after warm-up
  /// each class recycles within itself.
  static constexpr std::size_t kSmallBytes = 512;
  static constexpr int kSmall = 0;
  static constexpr int kLarge = 1;

  FramePool() = default;

  /// The calling thread's cache, or nullptr once the thread has begun to
  /// exit (its cache is already handed back).
  ThreadCache* LocalCache();
  std::vector<std::uint8_t> AcquireFrom(ThreadCache& cache,
                                        std::size_t reserve);
  void ReleaseTo(ThreadCache& cache, Frame&& frame);
  /// Pops a frame of class `cls` from `cache`, refilling it from the depot
  /// when empty (see kBatchFrames). False when both are empty.
  bool Take(ThreadCache& cache, int cls, Frame& frame);
  /// Moves one batch of the oldest frames of class `cls` to the depot.
  void Flush(ThreadCache& cache, int cls);
  /// Registers a new thread's cache / hands an exiting thread's cache back.
  void Attach(ThreadCache& cache);
  void Detach(ThreadCache& cache);
  /// Moves up to `count` frames from the front of `from` into depot class
  /// `cls`, never past kMaxPooled. The moved-from shells stay in `from`.
  /// Returns how many of the `count` frames the full depot refused.
  std::size_t PushToDepot(FrameList& from, std::size_t count, int cls)
      NEES_REQUIRES(mu_);

  mutable Mutex mu_{"util.FramePool"};
  FrameList depot_[2] NEES_GUARDED_BY(mu_);
  std::vector<ThreadCache*> live_ NEES_GUARDED_BY(mu_);
  Stats exited_ NEES_GUARDED_BY(mu_);  // totals of threads that have exited
  // Frames the full depot refused from exited threads' caches.
  std::uint64_t exited_discarded_ NEES_GUARDED_BY(mu_) = 0;
};

/// Shorthands for the process-wide pool.
inline std::vector<std::uint8_t> AcquireFrame(std::size_t reserve = 0) {
  return FramePool::Instance().Acquire(reserve);
}
inline void ReleaseFrame(std::vector<std::uint8_t>&& frame) {
  FramePool::Instance().Release(std::move(frame));
}

}  // namespace nees::util
