#include "api/dispatch_queue.h"

#include <utility>

#include "util/logging.h"

namespace ses::api {

const char* PriorityToString(Priority priority) {
  switch (priority) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kBatch:
      return "batch";
  }
  return "unknown";
}

bool DispatchQueue::TryDispatch(util::ThreadPool& pool, Priority priority,
                                DispatchJob job,
                                size_t* depth_at_refusal) {
  const size_t lane = static_cast<size_t>(priority);
  {
    util::MutexLock lock(mutex_);
    if (max_queued_ > 0 && queued_ >= max_queued_) {
      if (depth_at_refusal != nullptr) *depth_at_refusal = queued_;
      return false;
    }
    lanes_[lane].push_back(std::move(job));
    ++queued_;
    if (metrics_.lane_depth[lane] != nullptr) {
      metrics_.lane_depth[lane]->Increment();
    }
  }
  // One pool task per admitted job. RunNext is not guaranteed to find
  // *this* job (a more urgent one may drain first), but every pool task
  // pops exactly one job, so each admitted job runs (or expires) once.
  pool.Submit([this] { RunNext(); });
  return true;
}

size_t DispatchQueue::queued() const {
  util::MutexLock lock(mutex_);
  return queued_;
}

bool DispatchQueue::PopMostUrgent(DispatchJob* job) {
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    if (lanes_[lane].empty()) continue;
    *job = std::move(lanes_[lane].front());
    lanes_[lane].pop_front();
    --queued_;
    if (metrics_.lane_depth[lane] != nullptr) {
      metrics_.lane_depth[lane]->Decrement();
    }
    return true;
  }
  return false;
}

void DispatchQueue::RunNext() {
  DispatchJob job;
  bool found = false;
  {
    util::MutexLock lock(mutex_);
    found = PopMostUrgent(&job);
  }
  // Every pool task was submitted for a job that only pool tasks pop.
  SES_CHECK(found) << "dispatch task found every lane empty";
  if (job.expire != nullptr && job.deadline.Expired()) {
    // Dead on arrival at a worker: answer without running the job, so
    // an expired request costs microseconds instead of solver time.
    if (metrics_.deadline_expired_in_queue != nullptr) {
      metrics_.deadline_expired_in_queue->Increment();
    }
    job.expire();
    return;
  }
  job.run();
}

}  // namespace ses::api
