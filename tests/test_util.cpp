// Unit tests for the util substrate: checks, timing, RNG, strings, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/timer.hpp"

namespace janus {
namespace {

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(JANUS_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(JANUS_CHECK(false), check_error);
}

TEST(Check, MessageAppearsInWhat) {
  try {
    JANUS_CHECK_MSG(false, "ponies");
    FAIL() << "should have thrown";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("ponies"), std::string::npos);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(w.seconds(), 0.005);
  w.reset();
  EXPECT_LT(w.seconds(), 0.5);
}

TEST(Deadline, NeverExpiresByDefault) {
  deadline d;
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(Deadline, ExpiresAfterGivenSeconds) {
  const deadline d = deadline::in_seconds(0.0);
  EXPECT_TRUE(d.expired());
  const deadline later = deadline::in_seconds(60.0);
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_seconds(), 30.0);
}

TEST(Deadline, TightenedTakesTheEarlier) {
  const deadline d = deadline::in_seconds(60.0).tightened(0.0);
  EXPECT_TRUE(d.expired());
  const deadline d2 = deadline::never().tightened(60.0);
  EXPECT_FALSE(d2.expired());
  EXPECT_LE(d2.remaining_seconds(), 60.0);
}

TEST(Rng, DeterministicForSameSeed) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(13), 13u);
  }
}

TEST(Rng, NextInIsInclusive) {
  rng r(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoublesInUnitInterval) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIsDeterministic) {
  rng a(42);
  rng b(42);
  rng fa = a.fork(3);
  rng fb = b.fork(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fa.next_u64(), fb.next_u64());
  }
}

TEST(Rng, ForkDerivesFromSeedNotState) {
  // Forking must be order-insensitive: drawing from the parent first (or
  // forking other streams first) cannot change what a given stream yields.
  // This is what lets a repro record replay one fuzz case in isolation.
  rng fresh(42);
  rng drained(42);
  for (int i = 0; i < 57; ++i) {
    (void)drained.next_u64();
  }
  (void)drained.fork(0);
  (void)drained.fork(9);
  rng from_fresh = fresh.fork(3);
  rng from_drained = drained.fork(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(from_fresh.next_u64(), from_drained.next_u64());
  }
}

TEST(Rng, ForkStreamsAreIndependent) {
  rng parent(7);
  rng s0 = parent.fork(0);
  rng s1 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += s0.next_u64() == s1.next_u64();
  }
  EXPECT_LT(same, 4);
  // ...and distinct from the parent's own sequence.
  rng parent_again(7);
  rng s0_again = parent_again.fork(0);
  same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent_again.next_u64() == s0_again.next_u64();
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkOfForkIsDeterministic) {
  rng a = rng(5).fork(2).fork(11);
  rng b = rng(5).fork(2).fork(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Nested stream ids address different streams.
  rng c = rng(5).fork(2).fork(12);
  rng d = rng(5).fork(2).fork(11);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += c.next_u64() == d.next_u64();
  }
  EXPECT_LT(same, 4);
}

TEST(Str, SplitWhitespace) {
  const auto parts = split_ws("  a\tbb \n ccc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "bb");
  EXPECT_EQ(parts[2], "ccc");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Str, FormatFixed) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(2.0, 1), "2.0");
}

TEST(Log, LevelFiltering) {
  const log_level before = get_log_level();
  set_log_level(log_level::off);
  JANUS_LOG(error) << "suppressed";
  set_log_level(before);
  SUCCEED();
}

TEST(Log, DisabledStatementEvaluatesNoOperand) {
  const log_level before = get_log_level();
  set_log_level(log_level::warn);
  int calls = 0;
  const auto f = [&calls] { return ++calls; };
  JANUS_LOG(debug) << f();
  set_log_level(before);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace janus
