#include "src/events/event_loop.h"

#include <algorithm>
#include <utility>

namespace whodunit::events {

EventLoop::EventLoop(sim::Scheduler& sched, std::string name)
    : sched_(sched),
      name_(std::move(name)),
      queue_(sched),
      obs_dispatched_(&obs::Registry().GetCounter("events.dispatched")),
      obs_external_(&obs::Registry().GetCounter("events.external_injected")),
      obs_queue_depth_(&obs::Registry().GetHistogram("events.queue_depth",
                                                     obs::DefaultDepthBounds())),
      obs_handler_ns_(&obs::Registry().GetHistogram("events.handler_ns",
                                                    obs::DefaultLatencyBoundsNs())),
      obs_queue_wait_(&obs::Registry().GetHistogram("events.queue_wait_ns",
                                                    obs::DefaultLatencyBoundsNs())) {}

HandlerId EventLoop::RegisterHandler(std::string_view name, Handler handler) {
  const HandlerId id = handlers_.Intern(name);
  if (id >= handler_fns_.size()) {
    handler_fns_.resize(id + 1);
  }
  handler_fns_[id] = std::move(handler);
  return id;
}

void EventLoop::AddEvent(HandlerId handler, uint64_t payload) {
  Event ev{handler, payload, context::kEmptyContext, curr_sampled_};
  if (tracking_ && curr_sampled_) {
    ev.tran_ctxt = curr_node_;  // Figure 4, line 12
  }
  ev.posted_ns = sched_.now();
  queue_.Send(std::move(ev));
}

void EventLoop::AddExternalEvent(HandlerId handler, uint64_t payload, bool sampled) {
  obs_external_->Add();
  queue_.Send(Event{handler, payload, context::kEmptyContext, sampled, sched_.now()});
}

sim::Process EventLoop::Run() {
  for (;;) {
    auto ev = co_await queue_.Receive();
    if (!ev) {
      break;  // Stop() was called
    }
    obs_queue_depth_->Observe(queue_.pending());
    curr_queue_wait_ns_ = std::max<int64_t>(0, sched_.now() - ev->posted_ns);
    obs_queue_wait_->Observe(static_cast<uint64_t>(curr_queue_wait_ns_));
    if (tracking_) {
      curr_sampled_ = ev->sampled;
      if (ev->sampled) {
        // Figure 4, lines 5-6: concatenate the event's context with
        // its handler; Append prunes consecutive duplicates and loops.
        // With the interned tree this is one hash-cons probe, not a
        // vector copy.
        curr_node_ = context::GlobalContextTree().Append(
            ev->tran_ctxt,
            context::Element{context::ElementKind::kHandler, ev->handler}, pruning_);
      } else {
        curr_node_ = context::kEmptyContext;
      }
      if (listener_) {
        listener_(curr_node_, ev->sampled);
      }
    }
    ++events_dispatched_;
    obs_dispatched_->Add();
    const sim::SimTime start = sched_.now();
    HandlerContext hc{*this, ev->payload};
    co_await handler_fns_[ev->handler](hc);
    const sim::SimTime elapsed = sched_.now() - start;
    obs_handler_ns_->Observe(static_cast<uint64_t>(elapsed));
    obs::Tracer().Record("events.handler", handlers_.NameOf(ev->handler),
                         tracking_ ? context::GlobalContextTree().HashOf(curr_node_) : 0,
                         static_cast<int64_t>(start), static_cast<int64_t>(elapsed));
  }
}

}  // namespace whodunit::events
