#include "stream/dispatch.hpp"

#include "obs/context.hpp"
#include "serde/serde.hpp"
#include "stream/event.hpp"

namespace ps::stream {

StreamDispatcher::StreamDispatcher(std::shared_ptr<PubSub> broker,
                                   std::string topic, faas::Executor executor,
                                   std::string function)
    : broker_(std::move(broker)),
      topic_(std::move(topic)),
      executor_(std::move(executor)),
      function_(std::move(function)),
      dispatched_total_("stream.dispatch." + topic_),
      subscription_(broker_->subscribe(topic_)) {}

void StreamDispatcher::submit(Bytes event_wire) {
  const Event event = serde::from_bytes<Event>(event_wire);
  obs::ContextScope adopt(event.trace);
  obs::SpanScope span("stream.dispatch", topic_, "dispatch");
  dispatched_total_.get().inc();
  futures_.push_back(executor_.submit(function_, std::move(event_wire)));
  ++dispatched_;
}

std::size_t StreamDispatcher::run() {
  std::size_t count = 0;
  while (auto wire = subscription_->next()) {
    submit(std::move(*wire));
    ++count;
  }
  return count;
}

bool StreamDispatcher::dispatch_one() {
  auto wire = subscription_->try_next();
  if (!wire) return false;
  submit(std::move(*wire));
  return true;
}

}  // namespace ps::stream
