// Client-side executor for the FaaS substrate (the Globus Compute SDK's
// Executor in Listing 2).
//
// submit() ships a task through the cloud service and returns a future;
// typed helpers serialize arguments and results with the serde framework,
// so proxies passed as task inputs travel as factory descriptors exactly
// like the paper's Listing 2 workflow.
#pragma once

#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/uuid.hpp"
#include "faas/cloud.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"

namespace ps::faas {

/// Handle to a submitted task's eventual result.
class TaskFuture {
 public:
  /// `submit_vtime` is the submitter's virtual time just before submission
  /// (negative to skip round-trip accounting).
  TaskFuture(std::shared_ptr<CloudService> cloud, Uuid task,
             double submit_vtime = -1.0)
      : cloud_(std::move(cloud)), task_(task), submit_vtime_(submit_vtime) {}

  /// Blocks for the result, merges its virtual completion time, and
  /// rethrows remote task errors as ps::Error. Records the task's
  /// submit-to-result round trip into "faas.rtt.vtime".
  Bytes get() {
    obs::SpanScope span("faas.result");
    TaskResult result = cloud_->retrieve(task_);
    if (submit_vtime_ >= 0.0 && obs::enabled()) {
      static const obs::SiteHistogram rtt("faas.rtt.vtime");
      rtt.get().observe(sim::vnow() - submit_vtime_);
    }
    if (result.failed()) {
      static const obs::SiteCounter failures("faas.task_failures");
      failures.get().inc();
      throw Error("task failed remotely: " + result.error);
    }
    return std::move(result.data);
  }

  /// Typed result retrieval.
  template <typename T>
  T get_as() {
    return serde::from_bytes<T>(get());
  }

  const Uuid& task_id() const { return task_; }

 private:
  std::shared_ptr<CloudService> cloud_;
  Uuid task_;
  double submit_vtime_ = -1.0;
};

class Executor {
 public:
  /// Executor bound to one compute endpoint through the world's cloud
  /// service (resolved from the current process).
  explicit Executor(Uuid endpoint)
      : cloud_(CloudService::connect()), endpoint_(endpoint) {}

  Executor(std::shared_ptr<CloudService> cloud, Uuid endpoint)
      : cloud_(std::move(cloud)), endpoint_(endpoint) {}

  /// Byte-level submission.
  TaskFuture submit(const std::string& function, Bytes payload) {
    if (obs::enabled()) {
      static const obs::SiteCounter submits("faas.submits");
      submits.get().inc();
    }
    const double submit_vtime = sim::vnow();
    // The span is the thread's current context while cloud_->submit runs,
    // so the task record carries it to the remote worker.
    obs::SpanScope span("faas.submit", function, "wire-transfer");
    return TaskFuture(cloud_,
                      cloud_->submit(endpoint_, function, std::move(payload)),
                      submit_vtime);
  }

  /// Typed submission: the argument is serialized into the task payload.
  template <typename Arg>
  TaskFuture submit_typed(const std::string& function, const Arg& arg) {
    return submit(function, serde::to_bytes(arg));
  }

  const Uuid& endpoint() const { return endpoint_; }
  CloudService& cloud() { return *cloud_; }

 private:
  std::shared_ptr<CloudService> cloud_;
  Uuid endpoint_;
};

}  // namespace ps::faas
