#include "util/frame_pool.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

namespace nees::util {

// One thread's magazine: a bounded frame list per size class plus the
// thread's own stats. Only the owning thread touches the lists; stats()
// reads the counters from other threads, so they are relaxed atomics that
// only the owner writes.
struct FramePool::ThreadCache {
  ThreadCache(FramePool& owner, bool* exited_flag)
      : pool(owner), exited(exited_flag) {
    for (FrameList& list : frames) list.reserve(kThreadCacheFrames);
    pool.Attach(*this);
  }
  ~ThreadCache() {
    if (exited != nullptr) *exited = true;
    pool.Detach(*this);
  }
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  static void Bump(std::atomic<std::uint64_t>& counter,
                   std::uint64_t by = 1) {
    counter.store(counter.load(std::memory_order_relaxed) + by,
                  std::memory_order_relaxed);
  }

  FramePool& pool;
  bool* exited;
  FrameList frames[2];
  std::atomic<std::uint64_t> minted{0};
  std::atomic<std::uint64_t> reused{0};
  std::atomic<std::uint64_t> returned{0};
  // Frames the full depot refused when this cache flushed; they were
  // counted in some thread's `returned` and are subtracted in stats().
  std::atomic<std::uint64_t> discarded{0};
};

FramePool& FramePool::Instance() {
  static FramePool* pool = new FramePool();  // leaked: outlives all users
  return *pool;
}

FramePool::ThreadCache* FramePool::LocalCache() {
  // Trivially destructible, so it stays readable while the thread's
  // thread_local objects are torn down; set by the cache's destructor.
  thread_local bool exited = false;
  if (exited) return nullptr;
  thread_local ThreadCache cache(*this, &exited);
  return &cache;
}

std::vector<std::uint8_t> FramePool::Acquire(std::size_t reserve) {
  ThreadCache* local = LocalCache();
  if (local == nullptr) {
    // The thread is exiting and its cache is gone: a one-call cache
    // trades with the depot and hands back whatever it holds.
    ThreadCache once(*this, nullptr);
    return AcquireFrom(once, reserve);
  }
  return AcquireFrom(*local, reserve);
}

std::vector<std::uint8_t> FramePool::AcquireFrom(ThreadCache& cache,
                                                 std::size_t reserve) {
  Frame frame;
  const int cls = reserve > kSmallBytes ? kLarge : kSmall;
  // A small request is happy with a large frame; it comes back on the
  // large list when released. A large request with only small frames
  // available mints fresh: a realloc of a small frame would cost the same
  // allocation and lose the small buffer.
  if (Take(cache, cls, frame) ||
      (cls == kSmall && Take(cache, kLarge, frame))) {
    ThreadCache::Bump(cache.reused);
  } else {
    ThreadCache::Bump(cache.minted);
  }
  if (frame.capacity() < reserve) frame.reserve(reserve);
  return frame;
}

void FramePool::Release(std::vector<std::uint8_t>&& frame) {
  if (frame.capacity() == 0) return;  // nothing worth recycling
  frame.clear();
  ThreadCache* local = LocalCache();
  if (local == nullptr) {
    ThreadCache once(*this, nullptr);
    ReleaseTo(once, std::move(frame));
    return;
  }
  ReleaseTo(*local, std::move(frame));
}

void FramePool::ReleaseTo(ThreadCache& cache, Frame&& frame) {
  const int cls = frame.capacity() > kSmallBytes ? kLarge : kSmall;
  FrameList& list = cache.frames[cls];
  if (list.size() >= kThreadCacheFrames) Flush(cache, cls);
  list.push_back(std::move(frame));
  ThreadCache::Bump(cache.returned);
}

bool FramePool::Take(ThreadCache& cache, int cls, Frame& frame) {
  FrameList& list = cache.frames[cls];
  if (list.empty()) {
    MutexLock lock(mu_);
    FrameList& depot = depot_[cls];
    if (depot.empty()) return false;
    // At most a fair share of the depot: a batch taken by one thread sits
    // idle in its cache, and a thread that finds the depot empty mints.
    const std::size_t count = std::min(
        kBatchFrames, std::max<std::size_t>(1, depot.size() / live_.size()));
    const auto first = depot.end() - static_cast<std::ptrdiff_t>(count);
    list.insert(list.end(), std::make_move_iterator(first),
                std::make_move_iterator(depot.end()));
    depot.erase(first, depot.end());
  }
  frame = std::move(list.back());
  list.pop_back();
  return true;
}

void FramePool::Flush(ThreadCache& cache, int cls) {
  FrameList& list = cache.frames[cls];
  const std::size_t count = std::min(kBatchFrames, list.size());
  std::size_t refused = 0;
  {
    MutexLock lock(mu_);
    refused = PushToDepot(list, count, cls);
  }
  if (refused > 0) ThreadCache::Bump(cache.discarded, refused);
  // Outside the lock: drops the moved-from shells and frees any frames the
  // full depot refused. The oldest frames leave; the hot ones stay.
  list.erase(list.begin(), list.begin() + static_cast<std::ptrdiff_t>(count));
}

std::size_t FramePool::PushToDepot(FrameList& from, std::size_t count,
                                   int cls) {
  FrameList& depot = depot_[cls];
  const std::size_t room =
      depot.size() < kMaxPooled ? kMaxPooled - depot.size() : 0;
  const std::size_t moved = std::min(count, room);
  const auto first = from.begin();
  depot.insert(depot.end(), std::make_move_iterator(first),
               std::make_move_iterator(first +
                                       static_cast<std::ptrdiff_t>(moved)));
  return count - moved;
}

void FramePool::Attach(ThreadCache& cache) {
  MutexLock lock(mu_);
  live_.push_back(&cache);
}

void FramePool::Detach(ThreadCache& cache) {
  MutexLock lock(mu_);
  for (int cls : {kSmall, kLarge}) {
    exited_discarded_ +=
        PushToDepot(cache.frames[cls], cache.frames[cls].size(), cls);
  }
  exited_discarded_ += cache.discarded.load(std::memory_order_relaxed);
  exited_.minted += cache.minted.load(std::memory_order_relaxed);
  exited_.reused += cache.reused.load(std::memory_order_relaxed);
  exited_.returned += cache.returned.load(std::memory_order_relaxed);
  live_.erase(std::find(live_.begin(), live_.end(), &cache));
}

FramePool::Stats FramePool::stats() const {
  MutexLock lock(mu_);
  Stats total = exited_;
  std::uint64_t discarded = exited_discarded_;
  for (const ThreadCache* cache : live_) {
    total.minted += cache->minted.load(std::memory_order_relaxed);
    total.reused += cache->reused.load(std::memory_order_relaxed);
    total.returned += cache->returned.load(std::memory_order_relaxed);
    discarded += cache->discarded.load(std::memory_order_relaxed);
  }
  // Every discarded frame was counted when it was released; the min only
  // guards a snapshot taken while other threads are still counting.
  total.returned -= std::min(discarded, total.returned);
  return total;
}

}  // namespace nees::util
