#include "reference/heap_scheduler.h"

#include <utility>

namespace dctcpp {

EventId HeapScheduler::ScheduleAt(Tick at, Action action) {
  DCTCPP_ASSERT(action != nullptr);
  const std::uint64_t id = next_id_++;
  heap_.push(Entry{at, next_seq_++, id, std::move(action)});
  live_.insert(id);
  return EventId{id};
}

void HeapScheduler::Cancel(EventId id) {
  if (!id.valid()) return;
  // Lazy cancellation: if the event is still pending, remove it from the
  // live set; the heap entry is skipped when it reaches the top. Cancelling
  // an event that already fired (or was already cancelled) is a no-op.
  live_.erase(id.value);
}

void HeapScheduler::DropCancelledHead() {
  while (!heap_.empty() && !live_.contains(heap_.top().id)) {
    heap_.pop();
  }
}

Tick HeapScheduler::NextTime() {
  DropCancelledHead();
  return heap_.empty() ? kTickMax : heap_.top().at;
}

Tick HeapScheduler::RunNext() {
  DropCancelledHead();
  DCTCPP_ASSERT(!heap_.empty());
  Entry entry = heap_.top();
  heap_.pop();
  live_.erase(entry.id);
  ++executed_;
  entry.action();
  return entry.at;
}

}  // namespace dctcpp
