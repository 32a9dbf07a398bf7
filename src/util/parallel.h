// Chunked fork-join parallelism for Clara's embarrassingly parallel loops
// (corpus synthesis/labelling, cross-validation grids, design-space sweeps).
//
// The substrate is deliberately small: a shared pool of workers, a chunked
// ParallelFor where the calling thread participates, and an ordered
// ParallelMap. There is no work stealing — chunks are claimed from a single
// atomic cursor, which is fair enough for the uniform loop bodies Clara runs
// and keeps the implementation auditable.
//
// Determinism contract: each index writes only its own output, and callers
// fold parallel results serially in index order. Running at 1, 2 or 64
// threads therefore produces bit-identical results, which the ML training
// paths rely on (see DESIGN.md "Threading model & determinism").
//
// Sizing: the pool defaults to std::thread::hardware_concurrency, overridden
// by the CLARA_THREADS environment variable at first use or SetNumThreads()
// (the CLI's --threads=N flag). SetNumThreads must not race with running
// parallel loops.
#ifndef SRC_UTIL_PARALLEL_H_
#define SRC_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace clara {

// Hardware concurrency, at least 1.
int HardwareThreads();

// The configured parallelism (workers + calling thread). First call reads
// CLARA_THREADS; SetNumThreads overrides and resizes the shared pool.
int NumThreads();
void SetNumThreads(int n);

// True while the calling thread is executing inside a parallel region; used
// to run nested parallel constructs inline instead of deadlocking the pool.
bool InParallelRegion();

// Invokes fn(i) for every i in [0, n), splitting the range into chunks of at
// least `grain` iterations. The calling thread participates, so the loop
// costs nothing extra at NumThreads() == 1. The first exception thrown by fn
// is rethrown on the calling thread after all chunks finish; fn must be safe
// to invoke concurrently for distinct i.
void ParallelForGrain(size_t n, size_t grain, const std::function<void(size_t)>& fn);

// ParallelForGrain with an automatic grain (~4 chunks per thread).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

// Ordered parallel map: returns {fn(0), ..., fn(n-1)}. T must be default
// constructible and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t n, const Fn& fn) {
  std::vector<T> out(n);
  ParallelForGrain(n, 1, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace clara

#endif  // SRC_UTIL_PARALLEL_H_
