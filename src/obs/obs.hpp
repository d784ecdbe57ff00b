// Observability context: the single handle instrumentation points see.
//
// An ObsContext bundles a MetricsRegistry (always on once attached;
// sharded, safe to record from concurrent pool workers) and an optional
// Tracer (off until enable_tracing(); recording spans serializes the
// accelerator's batch engine so the event order is reproducible).
// Everything in the library takes a raw `ObsContext*` and treats
// nullptr as "observability disabled": the disabled path is a single
// pointer check, results are bit-identical and the simulated timeline is
// untouched either way -- observation only ever *reads* the simulation's
// timestamps, it never schedules anything.
//
// Host-side loops report through the pool observer: attach it to
// common::ThreadPool (ScopedPoolObservation below) and every labelled
// parallel_for index becomes a host-domain span plus a task counter.
#pragma once

#include <memory>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace hsvd::obs {

class ObsContext {
 public:
  ObsContext();
  ~ObsContext();
  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Creates the tracer (idempotent). Until this is called tracer()
  // returns nullptr and only metrics are collected.
  void enable_tracing();
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }

  // Adapter feeding labelled parallel_for loops into this context:
  // counter "host.pool.<label>" always, host-domain span when tracing.
  common::ParallelForObserver* pool_observer();

 private:
  class PoolObserver;

  MetricsRegistry metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<PoolObserver> pool_;
};

// RAII attachment of an ObsContext's pool observer to the process-wide
// ThreadPool observer slot (restores the previous observer on exit).
// Pass nullptr for a no-op scope. The slot is last-writer-wins, so two
// concurrently observed top-level calls should use the same ObsContext.
class ScopedPoolObservation {
 public:
  explicit ScopedPoolObservation(ObsContext* context);
  ~ScopedPoolObservation();
  ScopedPoolObservation(const ScopedPoolObservation&) = delete;
  ScopedPoolObservation& operator=(const ScopedPoolObservation&) = delete;

 private:
  bool attached_ = false;
  common::ParallelForObserver* previous_ = nullptr;
};

}  // namespace hsvd::obs
