#include "fault/injector.hpp"

#include <utility>

namespace p2p::fault {

FaultInjector::FaultInjector(sim::Simulator& simulator, net::Network& network,
                             FaultPlan plan, FaultHooks hooks)
    : sim_(&simulator),
      net_(&network),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)) {}

void FaultInjector::arm() {
  if (plan_.empty()) return;
  sim_->at(plan_.events().front().time, [this] { fire(); });
}

void FaultInjector::fire() {
  const auto& events = plan_.events();
  const sim::SimTime now = sim_->now();
  while (cursor_ < events.size() && events[cursor_].time <= now) {
    apply(events[cursor_]);
    ++cursor_;
  }
  if (hooks_.on_boundary) hooks_.on_boundary(now);
  if (cursor_ < events.size()) {
    sim_->at(events[cursor_].time, [this] { fire(); });
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kNodeCrash:
      if (!net_->alive(event.a)) {
        // Battery death beat us to it; the paired recover event still
        // clears the administrative flag (a drained node stays dead).
        ++stats_.crashes_skipped;
        net_->set_failed(event.a, true);
        return;
      }
      net_->set_failed(event.a, true);
      ++stats_.crashes;
      if (hooks_.on_crash) hooks_.on_crash(event.a);
      break;
    case FaultKind::kNodeRecover:
      net_->set_failed(event.a, false);
      ++stats_.recoveries;
      if (hooks_.on_recover) hooks_.on_recover(event.a);
      break;
    case FaultKind::kLinkBlackout:
      net_->set_link_blackout(event.a, event.b, sim_->now() + event.value);
      ++stats_.blackouts;
      break;
    case FaultKind::kLossBurstStart:
      net_->set_burst_loss(event.value);
      ++stats_.bursts;
      break;
    case FaultKind::kLossBurstEnd:
      net_->set_burst_loss(0.0);
      break;
  }
}

}  // namespace p2p::fault
