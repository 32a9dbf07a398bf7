#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace clara {
namespace {

thread_local bool t_in_parallel_region = false;

// Marks the calling thread as inside a parallel region while it lives, and
// restores the previous mark when it goes, on an exception too.
class RegionMark {
 public:
  RegionMark() : prev_(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionMark() { t_in_parallel_region = prev_; }
  RegionMark(const RegionMark&) = delete;
  RegionMark& operator=(const RegionMark&) = delete;

 private:
  bool prev_;
};

// One fork-join loop in flight. Chunks are claimed from `next`; the last
// finisher signals the condition variable so the caller can return.
struct Job {
  std::function<void(size_t)> body;  // receives a chunk index
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure; guarded by mu

  // Runs chunk 0 first when `holds_first` (the caller claimed it by starting
  // `next` at 1), then every chunk this thread can claim.
  void RunChunks(bool holds_first = false) {
    RegionMark mark;
    for (size_t c = holds_first ? 0 : Claim(); c < num_chunks; c = Claim()) {
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) {
          error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  size_t Claim() { return next.fetch_add(1, std::memory_order_relaxed); }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.load(std::memory_order_acquire) == num_chunks; });
  }
};

// Fixed set of workers pulling shared_ptr<Job> handles off a queue. A worker
// that dequeues a job helps drain its chunk cursor, then goes back to sleep;
// there is no per-chunk queue traffic.
class ThreadPool {
 public:
  explicit ThreadPool(int workers) { Start(workers); }

  ~ThreadPool() { Stop(); }

  int workers() const { return static_cast<int>(threads_.size()); }

  void Resize(int workers) {
    Stop();
    Start(workers);
  }

  void Submit(const std::shared_ptr<Job>& job, int copies) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int i = 0; i < copies; ++i) {
        queue_.push_back(job);
      }
    }
    if (copies == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

 private:
  void Start(int workers) {
    stop_ = false;
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
    queue_.clear();
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_) {
          return;
        }
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job->RunChunks();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

std::mutex g_pool_mu;
int g_num_threads = 0;              // 0 = not yet initialized
ThreadPool* g_pool = nullptr;       // leaked on purpose: outlives static dtors

int ThreadsFromEnv() {
  const char* env = std::getenv("CLARA_THREADS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n >= 1) {
      return n;
    }
  }
  return HardwareThreads();
}

// Returns the pool (creating it on first use) and the configured thread
// count. The pool holds NumThreads()-1 workers: the caller is a participant.
ThreadPool* GetPool(int* threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_num_threads == 0) {
    g_num_threads = ThreadsFromEnv();
  }
  if (g_pool == nullptr && g_num_threads > 1) {
    g_pool = new ThreadPool(g_num_threads - 1);
  }
  *threads = g_num_threads;
  return g_pool;
}

}  // namespace

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int NumThreads() {
  int threads = 1;
  GetPool(&threads);
  return threads;
}

void SetNumThreads(int n) {
  n = std::max(1, n);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_num_threads == n && (n == 1 || g_pool != nullptr)) {
    return;
  }
  g_num_threads = n;
  if (g_pool != nullptr) {
    if (n == 1) {
      delete g_pool;
      g_pool = nullptr;
    } else {
      g_pool->Resize(n - 1);
    }
  } else if (n > 1) {
    g_pool = new ThreadPool(n - 1);
  }
}

bool InParallelRegion() { return t_in_parallel_region; }

void RunInline(const std::function<void()>& fn) {
  RegionMark mark;
  fn();
}

void ParallelForGrain(size_t n, size_t grain, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (grain == 0) {
    grain = 1;
  }
  size_t num_chunks = (n + grain - 1) / grain;
  int threads = 1;
  ThreadPool* pool = GetPool(&threads);
  // Serial fast path: one thread, a single chunk, or a nested loop (workers
  // must not block on a job their own pool has to finish).
  if (pool == nullptr || threads <= 1 || num_chunks <= 1 || InParallelRegion()) {
    RegionMark mark;
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("parallel.pool.loops").Add(1);
    reg.GetCounter("parallel.pool.tasks").Add(num_chunks);
    reg.GetGauge("parallel.pool.threads").Set(threads);
  }
  auto job = std::make_shared<Job>();
  job->num_chunks = num_chunks;
  job->body = [&fn, n, grain](size_t c) {
    size_t lo = c * grain;
    size_t hi = std::min(n, lo + grain);
    for (size_t i = lo; i < hi; ++i) {
      fn(i);
    }
  };
  int helpers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(pool->workers()), num_chunks - 1));
  // The caller claims chunk 0 before waking any helper, so chunk 0 always
  // runs on the calling thread (and allocates from its malloc arena), however
  // fast a helper wakes.
  job->next.store(1, std::memory_order_relaxed);
  pool->Submit(job, helpers);
  job->RunChunks(/*holds_first=*/true);
  job->Wait();
  if (job->error) {
    std::rethrow_exception(job->error);
  }
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  int threads = 1;
  GetPool(&threads);
  size_t grain = std::max<size_t>(1, n / (static_cast<size_t>(threads) * 4));
  ParallelForGrain(n, grain, fn);
}

}  // namespace clara
