// Discrete-event scheduler façade.
//
// `TimerWheelScheduler` (timer_wheel.h) is the engine: a hierarchical
// timer wheel with a pooled, allocation-free event representation and
// O(1) generation-safe cancellation. Events pop in (time,
// insertion-sequence) order, so same-tick events fire in the order they
// were scheduled. tests/scheduler_diff_test.cc replays identical event
// traces through it and the binary-heap reference scheduler in
// tests/reference/ and asserts identical execution order.
#pragma once

#include "dctcpp/sim/event_id.h"
#include "dctcpp/sim/timer_wheel.h"

namespace dctcpp {

using Scheduler = TimerWheelScheduler;

}  // namespace dctcpp
