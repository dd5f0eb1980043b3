#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "common/ascii.h"
#include "common/csv.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"

namespace saufno {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(8);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NextBelowIsUnbiasedOverSmallRange) {
  Rng rng(9);
  int counts[5] = {0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(10);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_NE(v[0] * 49 + v[1], 0 * 49 + 1);  // astronomically unlikely identity
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(11);
  Rng child = parent.split();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

TEST(AsciiHeatmap, DimensionsAndRamp) {
  std::vector<float> f = {0.f, 0.5f, 1.f, 0.f};
  const std::string s = ascii_heatmap(f, 2, 2, 0.f, 1.f);
  // 2 rows of 2 chars + newlines.
  EXPECT_EQ(s.size(), 6u);
  EXPECT_EQ(s[0], ' ');   // cold
  EXPECT_EQ(s[1], '+');   // middle of the ramp
  EXPECT_EQ(s[3], '@');   // hot
}

TEST(AsciiHeatmap, AutoscaleHandlesConstantField) {
  std::vector<float> f(9, 3.f);
  const std::string s = ascii_heatmap(f, 3, 3);
  EXPECT_EQ(s.size(), 12u);  // no crash, well-formed grid
}

TEST(TablePrinter, AlignsColumnsAndRule) {
  TablePrinter t({"A", "B"}, {4, 6});
  t.add_row({"1", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("A   B"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_NE(s.find("1   22"), std::string::npos);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Csv, QuotesSpecialCells) {
  const std::string path = ::testing::TempDir() + "/saufno_csv_test.csv";
  {
    CsvWriter w(path);
    w.row({"plain", "with,comma", "with\"quote"});
    w.row({"1", "2", "3"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "plain,\"with,comma\",\"with\"\"quote\"");
  EXPECT_EQ(line2, "1,2,3");
  std::filesystem::remove(path);
}

TEST(Csv, FieldDump) {
  const std::string path = ::testing::TempDir() + "/saufno_field_test.csv";
  write_field_csv(path, {1.f, 2.f, 3.f, 4.f}, 2, 2);
  std::ifstream in(path);
  std::string l1, l2;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "1,2");
  EXPECT_EQ(l2, "3,4");
  std::filesystem::remove(path);
}

TEST(Env, ScaleParsing) {
  // Default (unset or junk) is smoke.
  unsetenv("SAUFNO_SCALE");
  EXPECT_EQ(bench_scale(), Scale::kSmoke);
  setenv("SAUFNO_SCALE", "paper", 1);
  EXPECT_EQ(bench_scale(), Scale::kPaper);
  EXPECT_EQ(scaled(1, 2), 2);
  setenv("SAUFNO_SCALE", "garbage", 1);
  EXPECT_EQ(bench_scale(), Scale::kSmoke);
  EXPECT_EQ(scaled(1, 2), 1);
  unsetenv("SAUFNO_SCALE");
}

TEST(Env, IntOverride) {
  unsetenv("SAUFNO_TEST_INT");
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "12", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 12);
  setenv("SAUFNO_TEST_INT", "-7", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), -7);
  setenv("SAUFNO_TEST_INT", "oops", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  unsetenv("SAUFNO_TEST_INT");
}

TEST(Env, IntRejectsTrailingGarbage) {
  // "8x" or "1e3" is a user mistake, not the number 8 / 1 — fall back.
  setenv("SAUFNO_TEST_INT", "8x", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "1e3", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "3.5", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  unsetenv("SAUFNO_TEST_INT");
}

TEST(Env, IntRejectsOverflow) {
  // Values past int range used to be blindly truncated by the long->int
  // cast (e.g. 4294967296 -> 0); they must fall back instead.
  setenv("SAUFNO_TEST_INT", "4294967296", 1);  // 2^32: would truncate to 0
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "-4294967296", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "99999999999999999999", 1);  // > LONG_MAX: ERANGE
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 5);
  setenv("SAUFNO_TEST_INT", "2147483647", 1);  // INT_MAX itself is fine
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), 2147483647);
  setenv("SAUFNO_TEST_INT", "-2147483648", 1);
  EXPECT_EQ(env_int("SAUFNO_TEST_INT", 5), -2147483648);
  unsetenv("SAUFNO_TEST_INT");
}

TEST(Env, IntInRange) {
  unsetenv("SAUFNO_TEST_INT");
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 4, 1, 8), 4);
  // Fallback itself is clamped into range.
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 99, 1, 8), 8);
  setenv("SAUFNO_TEST_INT", "6", 1);
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 4, 1, 8), 6);
  setenv("SAUFNO_TEST_INT", "0", 1);
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 4, 1, 8), 4);
  setenv("SAUFNO_TEST_INT", "9", 1);
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 4, 1, 8), 4);
  setenv("SAUFNO_TEST_INT", "6x", 1);
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 4, 1, 8), 4);
  setenv("SAUFNO_TEST_INT", "99999999999999999999", 1);
  EXPECT_EQ(env_int_in_range("SAUFNO_TEST_INT", 4, 1, 8), 4);
  unsetenv("SAUFNO_TEST_INT");
}

TEST(Env, ChoiceByNameCaseInsensitive) {
  static const char* const kNames[] = {"debug", "info", "warn", "error"};
  unsetenv("SAUFNO_TEST_CHOICE");
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 1);
  setenv("SAUFNO_TEST_CHOICE", "warn", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 2);
  setenv("SAUFNO_TEST_CHOICE", "ERROR", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 3);
  setenv("SAUFNO_TEST_CHOICE", "Debug", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 0);
  unsetenv("SAUFNO_TEST_CHOICE");
}

TEST(Env, ChoiceByNumericIndex) {
  static const char* const kNames[] = {"debug", "info", "warn", "error"};
  setenv("SAUFNO_TEST_CHOICE", "0", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 0);
  setenv("SAUFNO_TEST_CHOICE", "3", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 3);
  // Out-of-range index is an unknown value, not a clamp.
  setenv("SAUFNO_TEST_CHOICE", "4", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 1);
  setenv("SAUFNO_TEST_CHOICE", "-1", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 1, kNames, 4), 1);
  unsetenv("SAUFNO_TEST_CHOICE");
}

TEST(Env, ChoiceUnknownFallsBack) {
  static const char* const kNames[] = {"debug", "info", "warn", "error"};
  setenv("SAUFNO_TEST_CHOICE", "verbose", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 2, kNames, 4), 2);
  setenv("SAUFNO_TEST_CHOICE", "", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 2, kNames, 4), 2);
  // A fallback outside [0, n) is clamped so callers can never index
  // out of bounds with the result.
  setenv("SAUFNO_TEST_CHOICE", "junk", 1);
  EXPECT_EQ(env_choice("SAUFNO_TEST_CHOICE", 99, kNames, 4), 3);
  unsetenv("SAUFNO_TEST_CHOICE");
}

TEST(Logging, EnvLevelKnob) {
  // set_log_level marks the env knob consumed, so this test controls the
  // level deterministically regardless of SAUFNO_LOG_LEVEL in the
  // environment; here we just confirm setter/getter agreement.
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(before);
}

TEST(Logging, CheckMacroThrowsWithMessage) {
  try {
    SAUFNO_CHECK(false, "the message");
    FAIL() << "did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

TEST(Logging, LevelFilters) {
  // Just exercise the paths; output goes to stderr.
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  SAUFNO_INFO << "should be filtered";
  SAUFNO_ERROR << "should appear";
  set_log_level(before);
}

// ---------------------------------------------------------------------------
// Fault injection spec parsing and deterministic firing (common/fault.h).
// The config is process-global, so each test clears it on the way out.
// ---------------------------------------------------------------------------

TEST(Fault, ParsesMultiRuleSpec) {
  std::string err;
  const auto rules = fault::parse_spec(
      "alloc:p=0.01,forward:throw:p=0.001,delay:ms=50:p=0.05", &err);
  ASSERT_EQ(rules.size(), 3u) << err;
  EXPECT_EQ(rules[0].site, "alloc");
  EXPECT_EQ(rules[0].action, fault::Rule::kThrow);
  EXPECT_DOUBLE_EQ(rules[0].p, 0.01);
  EXPECT_EQ(rules[1].site, "forward");
  EXPECT_EQ(rules[1].action, fault::Rule::kThrow);
  EXPECT_DOUBLE_EQ(rules[1].p, 0.001);
  // Action-first rule: applies to every site via the "*" wildcard.
  EXPECT_EQ(rules[2].site, "*");
  EXPECT_EQ(rules[2].action, fault::Rule::kDelay);
  EXPECT_EQ(rules[2].delay_ms, 50);
  EXPECT_DOUBLE_EQ(rules[2].p, 0.05);
}

TEST(Fault, ParsesFirstNAndBareSite) {
  std::string err;
  const auto rules = fault::parse_spec("forward:throw:n=3,gemm", &err);
  ASSERT_EQ(rules.size(), 2u) << err;
  EXPECT_EQ(rules[0].first_n, 3);
  EXPECT_EQ(rules[1].site, "gemm");
  EXPECT_EQ(rules[1].action, fault::Rule::kThrow);
  EXPECT_DOUBLE_EQ(rules[1].p, 1.0);
}

TEST(Fault, RejectsMalformedSpecs) {
  for (const char* bad : {"forward:p=2",        // probability out of range
                          "forward:p=abc",      // not a number
                          "forward:bogus=1",    // unknown parameter
                          "forward:throw:ms=x", // garbage delay
                          ",,",                 // empty tokens
                          "forward:n=-2"}) {    // negative first_n
    std::string err;
    const auto rules = fault::parse_spec(bad, &err);
    EXPECT_TRUE(rules.empty()) << "accepted: " << bad;
    EXPECT_FALSE(err.empty()) << "no diagnostic for: " << bad;
  }
}

TEST(Fault, FirstNFiresExactlyNTimesThenGoesQuiet) {
  ASSERT_TRUE(fault::configure("unit_test_site:throw:n=2", 7));
  int thrown = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      fault::point("unit_test_site");
    } catch (const fault::FaultInjectedError&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 2);
  EXPECT_EQ(fault::injected_count("unit_test_site"), 2);
  fault::clear();
  EXPECT_NO_THROW(fault::point("unit_test_site"));
}

TEST(Fault, ThrowCountIgnoresDelays) {
  // A wildcard delay rule fires at every site; only the throws of the
  // site's own rule reach injected_throw_count.
  ASSERT_TRUE(fault::configure("delay:ms=0,unit_test_site:throw:n=1", 7));
  for (int i = 0; i < 3; ++i) {
    try {
      fault::point("unit_test_site");
    } catch (const fault::FaultInjectedError&) {
    }
  }
  fault::point("other_site");
  EXPECT_EQ(fault::injected_count("unit_test_site"), 4);  // 3 delays, 1 throw
  EXPECT_EQ(fault::injected_throw_count("unit_test_site"), 1);
  EXPECT_EQ(fault::injected_count("other_site"), 1);
  EXPECT_EQ(fault::injected_throw_count("other_site"), 0);
  fault::clear();
  EXPECT_EQ(fault::injected_throw_count("unit_test_site"), 0);
}

TEST(Fault, ProbabilisticFiringIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    EXPECT_TRUE(fault::configure("unit_test_site:throw:p=0.3", seed));
    std::vector<int> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        fault::point("unit_test_site");
      } catch (const fault::FaultInjectedError&) {
        fired.push_back(i);
      }
    }
    fault::clear();
    return fired;
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b) << "same seed produced different firing patterns";
  EXPECT_NE(a, c) << "different seeds produced identical firing patterns";
  EXPECT_GT(a.size(), 8u);   // p=0.3 over 64 evals: ~19 expected
  EXPECT_LT(a.size(), 32u);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait a short, measurable interval.
  volatile double x = 0;
  while (t.seconds() < 0.01) x += 1;
  EXPECT_GE(t.millis(), 10.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.01);
}

}  // namespace
}  // namespace saufno
