// Process-wide worker pool for the compute-bound hot paths: evaluation
// replications (tuner::evaluate), batch model prediction, pool
// featurization, quantized binning and GEIST's neighbour graph.
//
// A single shared pool avoids one-pool-per-model-fit thread churn; the
// consumers are written so their numeric results are bitwise identical
// for any worker count (fixed work decomposition, ordered reductions),
// which keeps reproduction runs seed-stable on any host. Tests exercise
// that contract by resizing the pool between runs.
//
// Loops nest: a replication running on a worker calls parallel_apply for
// its own batch prediction on the same pool. ThreadPool::parallel_for is
// nest-safe (thread_pool.h) — every caller works through its own loop's
// unclaimed items and waits only for items other threads already
// started, so nesting cannot deadlock however many outer items there
// are, and an inner loop never waits behind outer work. When all
// workers are busy an inner loop simply runs on its calling thread.
#pragma once

#include <cstddef>

#include "core/thread_pool.h"

namespace ceal {

/// The shared pool. Lazily constructed on first use with
/// hardware_concurrency workers (overridable via the CEAL_THREADS
/// environment variable; CEAL_THREADS=1 forces serial execution).
ThreadPool& global_thread_pool();

/// Replaces the shared pool with one of `threads` workers (0 = hardware
/// concurrency). Blocks until the old pool drains. Not safe to call
/// concurrently with work running on the pool.
void set_global_thread_pool_threads(std::size_t threads);

/// Worker count of the shared pool (constructs it on first use).
std::size_t global_thread_count();

/// Runs fn(i) for i in [begin, end), on the shared pool when it has more
/// than one worker and inline otherwise. On a single-lane configuration
/// (CEAL_THREADS=1 or a one-core host) pool dispatch would only add
/// queue/wakeup overhead on top of timesharing, so the loop stays on the
/// calling thread. Consumers must not depend on the execution placement.
/// Nest-safe: fn may call parallel_apply again.
void parallel_apply(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

}  // namespace ceal
