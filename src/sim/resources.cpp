#include "sim/resources.hpp"

#include "common/contracts.hpp"

namespace mecoff::sim {

FifoResource::FifoResource(SimEngine& engine, double capacity)
    : engine_(engine), capacity_(capacity) {
  MECOFF_EXPECTS(capacity > 0.0);
}

void FifoResource::submit(double size,
                          std::function<void(const JobStats&)> on_complete) {
  MECOFF_EXPECTS(size >= 0.0);
  Pending job;
  job.size = size;
  job.stats.admitted = engine_.now();
  job.on_complete = std::move(on_complete);
  queue_.push_back(std::move(job));
  if (!busy_) start_next();
}

void FifoResource::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending& job = queue_.front();
  job.stats.started = engine_.now();
  const SimTime duration = job.size / capacity_;
  engine_.schedule_after(duration, [this] {
    Pending job_done = std::move(queue_.front());
    queue_.pop_front();
    job_done.stats.completed = engine_.now();
    ++completed_;
    if (job_done.on_complete) job_done.on_complete(job_done.stats);
    start_next();
  });
}

}  // namespace mecoff::sim
