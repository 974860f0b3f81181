#include "runtime/thread_pool.hpp"

#include <chrono>
#include <optional>

#include "obs/trace.hpp"

namespace eco::runtime {
namespace {

// Binds a worker thread to its pool so submit() can route tasks into the
// worker's own deque without any lookup structure. Compared against `this`
// because multiple pools may coexist in one process (tests, shard pools).
struct WorkerBinding {
  ThreadPool* pool = nullptr;
  std::size_t worker = 0;
};
thread_local WorkerBinding t_binding;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::add_one() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++pending_;
}

void TaskGroup::finish_one() {
  // Notify under the lock: a waiter can then only return after this frame
  // released the mutex, which makes destroy-after-wait safe (see header).
  std::lock_guard<std::mutex> lock(mutex_);
  if (--pending_ == 0) done_.notify_all();
}

// ---------------------------------------------------------------------------
// WorkDeque
// ---------------------------------------------------------------------------

WorkDeque::WorkDeque(std::size_t capacity_pow2) {
  const std::size_t cap = round_up_pow2(capacity_pow2 < 2 ? 2 : capacity_pow2);
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
  for (std::size_t i = 0; i < cap; ++i) {
    // "free for index i": the first lap's pushes find their slots released.
    slots_[i].seq.store(static_cast<std::int64_t>(i),
                        std::memory_order_relaxed);
  }
}

bool WorkDeque::push(Item&& item) noexcept {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(b) & mask_];
  // The sequence check is both the capacity bound and the reuse handshake:
  // it acquires the release made by whichever thread consumed index
  // b - capacity, so the overwrite below cannot race a slow thief's move.
  if (slot.seq.load(std::memory_order_acquire) != b) return false;
  slot.item = std::move(item);
  slot.seq.store(b + 1, std::memory_order_release);
  // Release so a thief's acquire load of bottom makes the task visible.
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

bool WorkDeque::pop(Item& out) noexcept {
  // seq_cst store/load (not fence-based): the single total order on the
  // seq_cst accesses to bottom_ and top_ gives the store->load ordering the
  // classic algorithm needs, and — unlike atomic_thread_fence — is modelled
  // by ThreadSanitizer, keeping the TSan CI leg meaningful.
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {  // empty
    bottom_.store(b + 1, std::memory_order_release);
    return false;
  }
  Slot& slot = slots_[static_cast<std::size_t>(b) & mask_];
  if (t == b) {
    // Last element: race thieves for it through the top CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      bottom_.store(b + 1, std::memory_order_release);
      return false;  // a thief got it
    }
    bottom_.store(b + 1, std::memory_order_release);
    out = std::move(slot.item);
    // top passed index b: the slot's next occupant is index b + capacity.
    slot.seq.store(b + static_cast<std::int64_t>(capacity()),
                   std::memory_order_release);
    return true;
  }
  out = std::move(slot.item);
  // Non-last pop: bottom moved back DOWN to b, so the very next push reuses
  // index b itself — release the slot for b, not b + capacity (which would
  // wedge the ring: every future push(b) would see a stale sequence and
  // fail into the overflow path forever).
  slot.seq.store(b, std::memory_order_release);
  return true;
}

bool WorkDeque::steal(Item& out) noexcept {
  for (;;) {
    // seq_cst loads pair with pop()'s seq_cst bottom_ store (same rationale
    // as there: fence-free so TSan models the ordering).
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    Slot& slot = slots_[static_cast<std::size_t>(t) & mask_];
    if (!top_.compare_exchange_weak(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
      continue;  // another thief (or the owner's last-element pop) won
    }
    // CAS success proves index t was never consumed, so the slot was never
    // reused; the acquire load of bottom above synchronised with the
    // owner's release store, so the task bytes are visible. Plain move.
    out = std::move(slot.item);
    slot.seq.store(t + static_cast<std::int64_t>(capacity()),
                   std::memory_order_release);
    return true;
  }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(const ThreadPoolConfig& config) {
  const std::size_t count = config.workers == 0 ? 1 : config.workers;
  steal_ = config.steal;
  trace_ = config.trace;
  injector_ring_.resize(
      config.injector_capacity < 16 ? 16 : config.injector_capacity);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>(config.deque_capacity));
    workers_.back()->next_victim = (i + 1) % count;
  }
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  park_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(SmallTask task) {
  note_submission(task);
  submit_item(WorkDeque::Item{std::move(task), nullptr});
}

void ThreadPool::submit(TaskGroup& group, SmallTask task) {
  group.add_one();
  note_submission(task);
  submit_item(WorkDeque::Item{std::move(task), &group});
}

void ThreadPool::note_submission(const SmallTask& task) {
  if (task.heap_allocated()) {
    tasks_heap_.fetch_add(1, std::memory_order_relaxed);
  } else {
    tasks_inlined_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::submit_item(WorkDeque::Item&& item) {
  live_tasks_.fetch_add(1, std::memory_order_relaxed);
  if (t_binding.pool == this) {
    Worker& self = *workers_[t_binding.worker];
    if (self.deque.push(std::move(item))) {
      // Only thieves can run this before the owner returns to its own
      // loop, so skip the wakeup entirely when stealing is off.
      if (steal_) signal_work();
      return;
    }
    self.overflow_submits.fetch_add(1, std::memory_order_relaxed);
  } else {
    injector_submits_.fetch_add(1, std::memory_order_relaxed);
  }
  enqueue_injector(std::move(item));
  signal_work();
}

void ThreadPool::enqueue_injector(WorkDeque::Item&& item) {
  std::lock_guard<std::mutex> lock(injector_mutex_);
  if (injector_size_ < injector_ring_.size()) {
    injector_ring_[(injector_head_ + injector_size_) % injector_ring_.size()] =
        std::move(item);
    ++injector_size_;
  } else {
    injector_overflow_.push_back(std::move(item));
  }
  injector_count_.fetch_add(1, std::memory_order_release);
}

bool ThreadPool::injector_pop(WorkDeque::Item& out) {
  if (injector_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(injector_mutex_);
  if (injector_size_ > 0) {
    out = std::move(injector_ring_[injector_head_]);
    injector_head_ = (injector_head_ + 1) % injector_ring_.size();
    --injector_size_;
  } else if (!injector_overflow_.empty()) {
    out = std::move(injector_overflow_.front());
    injector_overflow_.pop_front();
  } else {
    return false;
  }
  injector_count_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::try_steal(Worker& self, WorkDeque::Item& out) {
  const std::size_t n = workers_.size();
  if (n < 2) return false;
  std::size_t victim = self.next_victim;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    Worker& candidate = *workers_[victim];
    if (&candidate != &self && candidate.deque.steal(out)) {
      self.next_victim = victim;  // hot victims stay hot
      self.steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    victim = (victim + 1) % n;
    if (workers_[victim].get() == &self) victim = (victim + 1) % n;
  }
  self.steal_failures.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool ThreadPool::find_work(Worker& self, WorkDeque::Item& out) {
  if (self.deque.pop(out)) return true;
  if (injector_pop(out)) return true;
  if (steal_ && try_steal(self, out)) return true;
  return false;
}

void ThreadPool::run_item(WorkDeque::Item& item, std::size_t worker_id) {
  item.task(worker_id);
  // Destroy the callable (and its captures) BEFORE releasing the group:
  // once a group wait returns, callers may tear down state the captures
  // reference.
  item.task = SmallTask{};
  workers_[worker_id]->executed.fetch_add(1, std::memory_order_relaxed);
  if (item.group != nullptr) item.group->finish_one();
  if (live_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_.notify_all();
  }
}

void ThreadPool::signal_work() {
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    // A parking worker checks its predicate and blocks under park_mutex_.
    // Passing through the mutex orders this notify after that block, so a
    // worker that saw the old epoch cannot miss it. No caller holds a lock
    // here, so this cannot deadlock.
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    park_cv_.notify_one();
  }
}

void ThreadPool::wait_idle() {
  if (live_tasks_.load(std::memory_order_acquire) == 0) return;
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_.wait(lock, [this] {
    return live_tasks_.load(std::memory_order_acquire) == 0;
  });
}

SchedulerStats ThreadPool::stats() const {
  SchedulerStats s;
  for (const auto& w : workers_) {
    s.tasks_executed += w->executed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.steal_failures += w->steal_failures.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
    s.queue_wait_ns += w->queue_wait_ns.load(std::memory_order_relaxed);
    s.overflow_submits += w->overflow_submits.load(std::memory_order_relaxed);
  }
  s.tasks_inlined = tasks_inlined_.load(std::memory_order_relaxed);
  s.tasks_heap = tasks_heap_.load(std::memory_order_relaxed);
  s.injector_submits = injector_submits_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  t_binding = WorkerBinding{this, worker_id};
  Worker& self = *workers_[worker_id];
  WorkDeque::Item item;
  for (;;) {
    if (find_work(self, item)) {
      run_item(item, worker_id);
      continue;
    }
    // Idle path: trace the starvation gap, then park until new work is
    // published (or the pool stops).
    const auto idle_start = std::chrono::steady_clock::now();
    bool got_work = false;
    {
      // One span covers the whole idle stretch so Perfetto shows worker
      // starvation gaps; it exists only when the owning pipeline traces.
      std::optional<obs::ShardScope> scope;
      std::optional<obs::Span> span;
      if (trace_) {
        scope.emplace(obs::kRunShard, true);
        span.emplace(obs::Stage::kSchedulerIdle);
        span->arg(static_cast<double>(worker_id));
      }
      for (;;) {
        const std::uint64_t epoch =
            work_epoch_.load(std::memory_order_seq_cst);
        if (find_work(self, item)) {
          got_work = true;
          break;
        }
        if (stopping_.load(std::memory_order_acquire)) break;
        std::unique_lock<std::mutex> lock(park_mutex_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        self.parks.fetch_add(1, std::memory_order_relaxed);
        // seq_cst pairs with signal_work(): a submitter that saw parked_ == 0
        // and skipped the notify bumped the epoch first, so this sees it.
        park_cv_.wait(lock, [this, epoch] {
          return stopping_.load(std::memory_order_relaxed) ||
                 work_epoch_.load(std::memory_order_seq_cst) != epoch;
        });
        parked_.fetch_sub(1, std::memory_order_relaxed);
        // A notify_one may land on a worker whose work was already taken
        // by someone else; pass the baton so a published task is never
        // stranded behind a swallowed wakeup.
        park_cv_.notify_one();
      }
    }
    const auto idle_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - idle_start)
                             .count();
    self.queue_wait_ns.fetch_add(static_cast<std::uint64_t>(idle_ns),
                                 std::memory_order_relaxed);
    if (!got_work) return;  // stopping and nothing left anywhere
    run_item(item, worker_id);
  }
}

}  // namespace eco::runtime
