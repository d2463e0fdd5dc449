#include "dctcpp/sim/arrival_calendar.h"

#include <utility>

#include "dctcpp/util/assert.h"

namespace dctcpp {

void ArrivalCalendar::DeliverEarliest() {
  DCTCPP_DASSERT(!heap_.empty());
  const Head top = heap_[0];
  Tick at = 0;
  std::uint64_t key = 0;
  // The delivery may arm other streams, but each lands at least one link
  // delay later, strictly behind this head: the stream stays at the root.
  const bool more = top.stream->DeliverHead(&at, &key);
  DCTCPP_DASSERT(heap_[0].stream == top.stream);
  if (more) {
    DCTCPP_DASSERT(Before(top, Head{at, key, top.stream}));
    heap_[0].at = at;
    heap_[0].key = key;
  } else {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
  }
  SiftDown(0);
}

void ArrivalCalendar::SiftUp(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) return;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void ArrivalCalendar::SiftDown(std::size_t i) {
  // Floyd's variant: a re-filed head is usually later than most others,
  // so walk the hole to a leaf along the earlier children (one compare per
  // level) and then sift the head back up the few levels it belongs.
  const std::size_t n = heap_.size();
  const Head moving = heap_[i];
  std::size_t hole = i;
  for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    heap_[hole] = heap_[child];
    hole = child;
  }
  while (hole > i) {
    const std::size_t parent = (hole - 1) / 2;
    if (!Before(moving, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = moving;
}

}  // namespace dctcpp
