// Dispatch-on-event: the funcX-style bridge from a stream topic into the
// FaaS substrate.
//
// A StreamDispatcher subscribes to a topic and turns every event into one
// task submission through a faas::Executor: the serialized Event is the
// task payload, so the remote function reconstructs the lazy payload proxy
// with stream::payload_proxy<T>() and the bulk data flows straight from the
// channel to the worker — the cloud service only ever carries event
// metadata. The event's TraceContext is adopted around each submission, so
// dispatch and remote execution stitch into the producer's trace.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "faas/executor.hpp"
#include "obs/metrics.hpp"
#include "stream/pubsub.hpp"

namespace ps::stream {

class StreamDispatcher {
 public:
  /// Subscribes to `topic` on construction (events published afterwards
  /// are dispatched; the subscriber joins at the tail like any other).
  StreamDispatcher(std::shared_ptr<PubSub> broker, std::string topic,
                   faas::Executor executor, std::string function);

  /// Pumps the topic to end-of-stream: one task submission per event.
  /// Returns the number of tasks dispatched. Futures accumulate in
  /// futures() for the caller to await.
  std::size_t run();

  /// Dispatches at most one buffered event without blocking; false when
  /// nothing was available.
  bool dispatch_one();

  std::vector<faas::TaskFuture>& futures() { return futures_; }
  const std::string& topic() const { return topic_; }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  void submit(Bytes event_wire);

  std::shared_ptr<PubSub> broker_;
  std::string topic_;
  faas::Executor executor_;
  std::string function_;
  obs::SiteCounter dispatched_total_;  // "stream.dispatch.<topic>"
  std::shared_ptr<Subscription> subscription_;
  std::vector<faas::TaskFuture> futures_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace ps::stream
