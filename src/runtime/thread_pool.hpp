// A work-stealing worker pool for the streaming runtime.
//
// Tasks receive the id of the worker executing them (0..size-1), which lets
// callers keep per-worker state (e.g. one gate instance per worker) without
// any synchronisation on the hot path.
//
// Scheduling model (PR 8):
//
//   * Each worker owns a bounded single-producer deque (`WorkDeque`, a
//     Chase–Lev variant hardened with per-slot sequence numbers, see below).
//     A task submitted FROM a worker thread goes into that worker's own
//     deque with no lock and no heap allocation; the owner pops LIFO from
//     the bottom while idle workers steal FIFO from the top with a single
//     CAS. Stealing is on by default and can be disabled per pool
//     (ThreadPoolConfig::steal).
//   * Tasks submitted from OUTSIDE the pool (the pipeline/shard drivers)
//     land in a shared bounded injector ring guarded by a mutex — a cold
//     path (a handful of submissions per control window), polled by workers
//     between deque drains.
//   * Tasks are `SmallTask`s: a move-only callable wrapper with inline
//     storage. Every capture the runtime submits fits inline, so
//     steady-state submission performs ZERO heap allocations (the bench and
//     scheduler_test pin this via SchedulerStats::tasks_heap).
//   * A worker that finds no work anywhere parks on a condition variable.
//     Submitters bump an epoch counter and notify ONLY when at least one
//     worker is parked, so the steady-state submit path never touches the
//     park mutex (wakeup on empty->non-empty transitions only). When one
//     is parked, the submitter passes through the park mutex before it
//     notifies, so a worker between its predicate check and its block
//     cannot miss the wakeup.
//
// Determinism: the pool moves whole tasks between workers; it never splits
// one. Every determinism-relevant reduction in the runtime happens in
// stream order on the driver thread, so WHERE a task ran (and whether it
// was stolen) is unobservable in the merged reports — the bitwise contract
// holds across worker counts and the steal/pipelining toggles.
//
// Several independent clients (e.g. the engine shards of a ShardedPipeline)
// can share one pool through TaskGroups: each client tags its tasks with its
// own group and waits on that group alone, so one shard's window barrier
// never stalls on another shard's in-flight work. wait_idle() remains the
// pool-wide barrier for single-client callers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace eco::runtime {

// Destructive-interference distance. A plain constant (not
// std::hardware_destructive_interference_size) because the tree builds
// warning-free and GCC flags the std value as tuning-dependent ABI.
inline constexpr std::size_t kCacheLine = 64;

// ---------------------------------------------------------------------------
// SmallTask: a move-only `void(std::size_t worker)` callable with inline
// storage. Callables up to kInlineBytes move into the task object itself;
// larger ones fall back to one heap allocation (counted by the pool so the
// zero-alloc pin can see it). Replaces std::function on the submit path,
// whose small-buffer is both smaller and unspecified.
// ---------------------------------------------------------------------------
class SmallTask {
 public:
  static constexpr std::size_t kInlineBytes = 112;

  SmallTask() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallTask> &&
                std::is_invocable_v<std::decay_t<F>&, std::size_t>>>
  SmallTask(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      vtable_ = &inline_vtable<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      vtable_ = &heap_vtable<Fn>;
    }
  }

  SmallTask(SmallTask&& other) noexcept { move_from(other); }

  SmallTask& operator=(SmallTask&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallTask(const SmallTask&) = delete;
  SmallTask& operator=(const SmallTask&) = delete;

  ~SmallTask() { reset(); }

  void operator()(std::size_t worker) { vtable_->invoke(target(), worker); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// True when the wrapped callable lives on the heap (didn't fit inline).
  [[nodiscard]] bool heap_allocated() const noexcept {
    return vtable_ != nullptr && heap_ != nullptr;
  }

  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    void (*invoke)(void* target, std::size_t worker);
    // Inline: move-construct into `to` and destroy the source. Heap: unused.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* target);
  };

  template <typename Fn>
  static constexpr VTable inline_vtable = {
      [](void* t, std::size_t w) { (*static_cast<Fn*>(t))(w); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* t) { static_cast<Fn*>(t)->~Fn(); }};

  template <typename Fn>
  static constexpr VTable heap_vtable = {
      [](void* t, std::size_t w) { (*static_cast<Fn*>(t))(w); },
      nullptr,
      [](void* t) { delete static_cast<Fn*>(t); }};

  void* target() noexcept { return heap_ != nullptr ? heap_ : storage_; }

  void move_from(SmallTask& other) noexcept {
    vtable_ = other.vtable_;
    heap_ = other.heap_;
    if (vtable_ != nullptr && heap_ == nullptr) {
      vtable_->relocate(other.storage_, storage_);
    }
    other.vtable_ = nullptr;
    other.heap_ = nullptr;
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(target());
      vtable_ = nullptr;
      heap_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
  void* heap_ = nullptr;
};

/// Tracks the completion of one client's tasks on a shared ThreadPool.
/// A group may be reused for successive task batches (submit, wait, submit,
/// wait ...). Deliberately mutex-based throughout: a wait() can only return
/// after the releasing finish_one() dropped the lock, so destroying the
/// group right after wait() is safe even while that finisher's call frame
/// is still unwinding. (The pipeline's hot path uses CompletionLatch, not
/// groups; this is the shared-pool client API.)
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until every task submitted under this group has finished.
  /// Safe to call with no tasks pending (returns immediately).
  void wait();

 private:
  friend class ThreadPool;

  void add_one();
  void finish_one();

  std::size_t pending_ = 0;  // guarded by mutex_
  std::mutex mutex_;
  std::condition_variable done_;
};

/// A one-shot (but resettable) countdown: reset(n), n count_down() calls,
/// wait() returns. Used by the pipeline for per-window dependency tracking
/// (one window-done event per window) in place of pool-wide barriers.
/// Non-final count_down() calls are a single lock-free decrement; only the
/// releasing call takes the mutex.
///
/// Destruction safety: wait() always goes through the mutex and its
/// predicate (`released_`) is only ever satisfied by a store made UNDER the
/// mutex by the releasing count_down(). A returning wait() therefore
/// happens-after that count_down() dropped the lock, so the latch may be
/// destroyed (or reset) immediately after wait() — there is no window where
/// the finisher still touches the mutex/condvar of a freed latch. (An
/// atomic-fast-path wait() would reintroduce exactly that race.)
class CompletionLatch {
 public:
  CompletionLatch() = default;
  CompletionLatch(const CompletionLatch&) = delete;
  CompletionLatch& operator=(const CompletionLatch&) = delete;

  /// Starts a new cycle. Only when no wait() is in progress and the
  /// previous cycle (if any) has been fully observed — the pipeline
  /// guarantees this by ordering resets after the window-done handshake.
  void reset(std::size_t count) noexcept {
    remaining_.store(count, std::memory_order_relaxed);
    released_ = (count == 0);
  }

  void count_down() noexcept {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
      done_.notify_all();
    }
  }

  /// Timing probe only (is the wait going to block?) — NOT a
  /// synchronisation point; a true result does not license skipping wait().
  [[nodiscard]] bool ready() const noexcept {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return released_; });
  }

 private:
  std::atomic<std::size_t> remaining_{0};
  bool released_ = true;  // guarded by mutex_
  std::mutex mutex_;
  std::condition_variable done_;
};

// ---------------------------------------------------------------------------
// WorkDeque: a bounded single-producer work-stealing deque.
//
// Layout follows Chase–Lev (owner pushes/pops at `bottom`, thieves CAS
// `top`), hardened for a bounded ring with a per-slot sequence counter in
// the style of Vyukov's bounded queues:
//
//   slot.seq == i        : slot is free for index i (initial / released)
//   slot.seq == i + 1    : index i's task is stored and ready
//   slot.seq == i + cap  : index i consumed from the TOP (steal, or the
//                          owner's last-element pop); the slot's next
//                          occupant is index i + cap
//
// The owner's NON-last pop is the asymmetric case: it moves `bottom` back
// down to i, so the very next push reuses index i itself — the pop
// therefore releases the slot back to seq == i (not i + cap).
//
// The sequence handshake gives two guarantees the classic algorithm lacks
// on a bounded ring: (1) the owner never overwrites a slot a slow thief is
// still moving a task out of (push observes the release of the consume),
// and (2) a thief whose top-CAS succeeded may read the slot's task with
// plain loads — CAS success proves index `t` was never consumed, hence the
// slot was never reused, and the acquire load of `bottom` that observed
// `bottom > t` synchronises with the owner's release store, making the
// task bytes visible. No speculative reads of live task objects ever
// happen, so the structure is clean under ThreadSanitizer without
// annotations.
//
// push() returns false when the ring is full (caller overflows to the
// injector); pop() is owner-only; steal() may be called from any thread.
// ---------------------------------------------------------------------------
class WorkDeque {
 public:
  struct Item {
    SmallTask task;
    TaskGroup* group = nullptr;
  };

  explicit WorkDeque(std::size_t capacity_pow2 = 256);

  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;

  /// Owner only. False when full (or a slow thief still holds the slot).
  bool push(Item&& item) noexcept;

  /// Owner only. Takes the most recently pushed item (LIFO).
  bool pop(Item& out) noexcept;

  /// Any thread. Takes the oldest item (FIFO). False when empty or lost a
  /// race; callers treat false as "try elsewhere", not "permanently empty".
  bool steal(Item& out) noexcept;

  [[nodiscard]] bool empty() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return t >= b;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<std::int64_t> seq{0};
    Item item;
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  // Owner-written and thief-written indices on separate cache lines.
  alignas(kCacheLine) std::atomic<std::int64_t> bottom_{0};
  alignas(kCacheLine) std::atomic<std::int64_t> top_{0};
};

/// Aggregate scheduler counters, snapshot via ThreadPool::stats().
/// Everything here is observability only — excluded from the bitwise
/// determinism contract exactly like wall-clock timings (scheduling order
/// is timing-dependent even though the reduced reports are not).
struct SchedulerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_inlined = 0;   ///< callables that fit SmallTask inline
  std::uint64_t tasks_heap = 0;      ///< callables that fell back to the heap
  std::uint64_t steals = 0;          ///< successful steals
  std::uint64_t steal_failures = 0;  ///< full victim scans that found nothing
  std::uint64_t injector_submits = 0;  ///< external (non-worker) submissions
  std::uint64_t overflow_submits = 0;  ///< bounded structures full -> fallback
  std::uint64_t parks = 0;             ///< times a worker blocked for work
  std::uint64_t queue_wait_ns = 0;     ///< summed worker idle-wait time
  /// Filled by the pipeline (not the pool): driver time blocked on window
  /// completion events, and windows dispatched while the previous window
  /// was still in flight.
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t windows_pipelined = 0;
  /// Filled by the pipeline from FrameStream: consumer pops that blocked on
  /// a frame whose generation task had not finished, and the summed blocked
  /// time (ingest starvation — the dataloader-bound signal).
  std::uint64_t ingest_blocked_pops = 0;
  std::uint64_t ingest_blocked_ns = 0;
};

struct ThreadPoolConfig {
  std::size_t workers = 1;
  /// Allow idle workers to steal from other workers' deques.
  bool steal = true;
  /// Emit scheduler_idle spans (obs/trace.hpp) while workers wait for work.
  /// Follows the pipeline's tracing flag so the zero-spans-when-off
  /// contract holds.
  bool trace = false;
  /// Per-worker deque capacity (rounded up to a power of two).
  std::size_t deque_capacity = 256;
  /// Shared injector ring capacity for external submissions.
  std::size_t injector_capacity = 1024;
};

class ThreadPool {
 public:
  /// Spawns `config.workers` threads (at least 1).
  explicit ThreadPool(const ThreadPoolConfig& config);

  /// Back-compat convenience: `workers` threads, stealing on, tracing off.
  explicit ThreadPool(std::size_t workers)
      : ThreadPool(ThreadPoolConfig{workers, true, false, 256, 1024}) {}

  /// Drains all queued work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// True when work stealing is active for this pool (config.steal).
  [[nodiscard]] bool stealing() const noexcept { return steal_; }

  /// Enqueues one task. Never blocks. From a worker thread of this pool the
  /// task goes into that worker's own deque (lock-free); from any other
  /// thread it goes through the shared injector ring.
  void submit(SmallTask task);

  /// Enqueues one task under `group`; group.wait() blocks until it (and
  /// every other task of the group) has finished. Tasks may submit further
  /// tasks into their own group: the submitter is still in flight, so the
  /// group cannot be observed empty before the children are registered.
  void submit(TaskGroup& group, SmallTask task);

  /// Blocks until every submitted task has finished (all groups).
  void wait_idle();

  /// Snapshot of the scheduler counters summed over all workers. Stable
  /// only while the pool is quiescent (after wait_idle / group waits).
  [[nodiscard]] SchedulerStats stats() const;

 private:
  // Per-worker state, cache-line aligned so one worker's hot counters and
  // deque indices never false-share with a neighbour's.
  struct alignas(kCacheLine) Worker {
    WorkDeque deque;
    std::size_t next_victim = 0;
    // Counters are atomics only so stats() may read them while workers are
    // parked; each is written by its owning worker alone (relaxed).
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_failures{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> queue_wait_ns{0};
    std::atomic<std::uint64_t> overflow_submits{0};

    explicit Worker(std::size_t deque_capacity) : deque(deque_capacity) {}
  };

  void submit_item(WorkDeque::Item&& item);
  void enqueue_injector(WorkDeque::Item&& item);
  bool injector_pop(WorkDeque::Item& out);
  bool try_steal(Worker& self, WorkDeque::Item& out);
  bool find_work(Worker& self, WorkDeque::Item& out);
  void run_item(WorkDeque::Item& item, std::size_t worker_id);
  void note_submission(const SmallTask& task);
  void signal_work();
  void worker_loop(std::size_t worker_id);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  bool steal_ = true;
  bool trace_ = false;

  // Injector: bounded ring of external submissions + unbounded fallback.
  // Cold path by design — a handful of driver submissions per window.
  std::mutex injector_mutex_;
  std::vector<WorkDeque::Item> injector_ring_;
  std::size_t injector_head_ = 0;  // pop side
  std::size_t injector_size_ = 0;
  std::deque<WorkDeque::Item> injector_overflow_;
  // Lock-free emptiness probe so idle polling skips the mutex.
  std::atomic<std::size_t> injector_count_{0};

  // Submission-side counters (external threads), separated from the worker
  // cache lines.
  alignas(kCacheLine) std::atomic<std::uint64_t> tasks_inlined_{0};
  std::atomic<std::uint64_t> tasks_heap_{0};
  std::atomic<std::uint64_t> injector_submits_{0};

  // Pool-wide live-task count backing wait_idle().
  alignas(kCacheLine) std::atomic<std::size_t> live_tasks_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_;

  // Parking lot: workers sleep here when no work is visible anywhere.
  // work_epoch_ increments on every submission; a worker records the epoch
  // before its final scan, so a submission racing the scan flips the
  // predicate and the worker never sleeps through it.
  alignas(kCacheLine) std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<bool> stopping_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

}  // namespace eco::runtime
