// IntervalSet tests: coalescing semantics, trim/query edge cases, and the
// randomized differential against MapIntervalSet (the std::map scoreboard
// representation the flat vector replaced).
#include <gtest/gtest.h>

#include <vector>

#include "dctcpp/util/interval_set.h"
#include "dctcpp/util/rng.h"
#include "reference/map_interval_set.h"

namespace dctcpp {
namespace {

std::vector<Interval> Contents(const IntervalSet& s) {
  return s.intervals();
}

std::vector<Interval> Contents(const MapIntervalSet& s) {
  std::vector<Interval> out;
  s.ForEach([&out](const Interval& iv) {
    out.push_back(iv);
    return true;
  });
  return out;
}

TEST(IntervalSetTest, AddCoalescesOverlapAndAbutment) {
  IntervalSet s;
  s.Add(100, 200);
  s.Add(300, 400);
  EXPECT_EQ(s.size(), 2u);
  s.Add(200, 250);  // abuts the first range
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.front(), (Interval{100, 250}));
  s.Add(240, 310);  // bridges both
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.front(), (Interval{100, 400}));
  s.Add(150, 160);  // fully contained: no change
  EXPECT_EQ(s.front(), (Interval{100, 400}));
  EXPECT_EQ(s.TotalBytes(), 300);
}

TEST(IntervalSetTest, EmptyRangeIsIgnored) {
  IntervalSet s;
  s.Add(10, 10);
  s.Add(10, 5);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSetTest, TrimBelowDropsAndTruncates) {
  IntervalSet s;
  s.Add(0, 100);
  s.Add(200, 300);
  s.Add(400, 500);
  s.TrimBelow(250);  // drops [0,100), truncates [200,300) to [250,300)
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.front(), (Interval{250, 300}));
  s.TrimBelow(300);  // boundary: [250,300) ends exactly at the trim point
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.front(), (Interval{400, 500}));
  s.TrimBelow(1000);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSetTest, CoveringEndAndNextStartAfter) {
  IntervalSet s;
  s.Add(100, 200);
  s.Add(300, 400);
  EXPECT_EQ(s.CoveringEnd(100), 200);
  EXPECT_EQ(s.CoveringEnd(199), 200);
  EXPECT_EQ(s.CoveringEnd(200), -1);  // end is exclusive
  EXPECT_EQ(s.CoveringEnd(99), -1);
  EXPECT_TRUE(s.Contains(350));
  EXPECT_FALSE(s.Contains(250));
  EXPECT_EQ(s.NextStartAfter(99), 100);
  EXPECT_EQ(s.NextStartAfter(100), 300);
  EXPECT_EQ(s.NextStartAfter(400), -1);
}

TEST(IntervalSetTest, PopFrontAndForEachEarlyStop) {
  IntervalSet s;
  s.Add(10, 20);
  s.Add(30, 40);
  s.Add(50, 60);
  s.PopFront();
  EXPECT_EQ(s.front(), (Interval{30, 40}));
  int seen = 0;
  s.ForEach([&seen](const Interval&) {
    ++seen;
    return seen < 1;  // stop after the first
  });
  EXPECT_EQ(seen, 1);
}

// Differential: replay a random mixed workload through both
// implementations and assert identical observable state after every
// operation. This is the proof that swapping the socket/receive-buffer
// scoreboards from std::map to the flat vector changed no behavior.
TEST(IntervalSetDifferentialTest, RandomOpsMatchMapReference) {
  Rng rng(2024);
  IntervalSet flat;
  MapIntervalSet map;
  std::int64_t trim_floor = 0;
  for (int op = 0; op < 20000; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind <= 5) {
      // Segment-sized adds clustered near the trim floor, as in a real
      // scoreboard; occasional large spans force multi-range coalescing.
      const std::int64_t start =
          trim_floor + rng.UniformInt(0, 5000);
      const std::int64_t len =
          rng.Chance(0.1) ? rng.UniformInt(1000, 4000) : rng.UniformInt(1, 200);
      flat.Add(start, start + len);
      map.Add(start, start + len);
    } else if (kind <= 6) {
      trim_floor += rng.UniformInt(0, 800);
      flat.TrimBelow(trim_floor);
      map.TrimBelow(trim_floor);
    } else if (kind <= 7 && !flat.empty() && !map.empty()) {
      flat.PopFront();
      map.PopFront();
    } else {
      const std::int64_t probe = trim_floor + rng.UniformInt(-100, 5200);
      ASSERT_EQ(flat.CoveringEnd(probe), map.CoveringEnd(probe));
      ASSERT_EQ(flat.NextStartAfter(probe), map.NextStartAfter(probe));
      ASSERT_EQ(flat.Contains(probe), map.Contains(probe));
    }
    ASSERT_EQ(flat.size(), map.size());
    ASSERT_EQ(flat.TotalBytes(), map.TotalBytes());
    ASSERT_EQ(Contents(flat), Contents(map));
  }
}

}  // namespace
}  // namespace dctcpp
