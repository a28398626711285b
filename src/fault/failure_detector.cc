#include "fault/failure_detector.h"

#include <algorithm>

namespace dynamoth::fault {

void FailureDetector::watch(ServerId server, SimTime now) {
  last_[server] = now;  // re-watching resets the grace period
}

void FailureDetector::forget(ServerId server) { last_.erase(server); }

void FailureDetector::heartbeat(ServerId server, SimTime now) {
  auto it = last_.find(server);
  if (it != last_.end()) it->second = std::max(it->second, now);
}

SimTime FailureDetector::silence(ServerId server, SimTime now) const {
  auto it = last_.find(server);
  if (it == last_.end()) return 0;
  return std::max<SimTime>(0, now - it->second);
}

bool FailureDetector::suspected(ServerId server, SimTime now) const {
  return watching(server) && silence(server, now) > kDetectorTimeout;
}

std::vector<ServerId> FailureDetector::suspects(SimTime now) const {
  std::vector<ServerId> out;
  for (const auto& [id, _] : last_) {
    if (suspected(id, now)) out.push_back(id);
  }
  return out;
}

}  // namespace dynamoth::fault
