#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "util/file_io.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace gsv {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("object X missing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "object X missing");
  EXPECT_EQ(status.ToString(), "NotFound: object X missing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("m").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("m").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
}

TEST(StatusTest, TransientCodesForFaultTolerance) {
  Status unavailable = Status::Unavailable("source down");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: source down");
  Status deadline = Status::DeadlineExceeded("retries spent");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: retries spent");

  EXPECT_TRUE(IsSourceFailure(unavailable));
  EXPECT_TRUE(IsSourceFailure(deadline));
  EXPECT_FALSE(IsSourceFailure(Status::Ok()));
  EXPECT_FALSE(IsSourceFailure(Status::NotFound("definitive answer")));
}

#ifdef NDEBUG
TEST(StatusTest, OkCodedErrorCoercesToInternalInRelease) {
  // With asserts compiled out, an error Status mistakenly built with kOk
  // must not read as success downstream.
  Status status(StatusCode::kOk, "mistake");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "mistake");
}
#endif

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(result.value_or(-1), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(-3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

Result<int> Doubled(int x) {
  GSV_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

Status CheckAll(int a, int b) {
  GSV_RETURN_IF_ERROR(ParsePositive(a).ok() ? Status::Ok()
                                            : ParsePositive(a).status());
  GSV_RETURN_IF_ERROR(ParsePositive(b).ok() ? Status::Ok()
                                            : ParsePositive(b).status());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckAll(1, 2).ok());
  EXPECT_FALSE(CheckAll(1, -2).ok());
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotonic) {
  Stopwatch watch;
  double t1 = watch.ElapsedSeconds();
  double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_GE(watch.ElapsedMicros(), 0);
}

TEST(StringUtilTest, SplitBasics) {
  EXPECT_EQ(Split("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", '.'), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, JoinBasics) {
  EXPECT_EQ(Join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(Join({}, "."), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("abc").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999").has_value()) << "overflow";
  EXPECT_FALSE(ParseInt64("-99999999999999999999").has_value());
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808"), INT64_MIN);
  // Spellings strtoll accepts and std::from_chars does not.
  EXPECT_EQ(ParseInt64("+5"), 5);
  EXPECT_EQ(ParseInt64(" 12"), 12);
  EXPECT_FALSE(ParseInt64("+").has_value());
  EXPECT_FALSE(ParseInt64("-").has_value());
  EXPECT_FALSE(ParseInt64("12 ").has_value());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2"), -2.0);
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1.5garbage").has_value());
}

TEST(StringUtilTest, Affixes) {
  EXPECT_TRUE(StartsWith("professor.student", "professor"));
  EXPECT_FALSE(StartsWith("pro", "professor"));
  EXPECT_TRUE(EndsWith("professor.student", "student"));
  EXPECT_FALSE(EndsWith("dent", "student"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

// ------------------------------------------------------------------ Retry

TEST(RetryTest, FirstAttemptSuccessIssuesOneCall) {
  RetryOutcome outcome;
  Status status = RetryWithBackoff(
      RetryPolicy{}, [] { return Status::Ok(); }, &outcome);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.backoff_us, 0);
}

TEST(RetryTest, RetriesUnavailableUntilSuccess) {
  int calls = 0;
  RetryOutcome outcome;
  Status status = RetryWithBackoff(
      RetryPolicy{},
      [&] {
        return ++calls < 3 ? Status::Unavailable("blip") : Status::Ok();
      },
      &outcome);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.backoff_us, 100 + 200) << "exponential from 100us";
}

TEST(RetryTest, NonRetryableCodeReturnsImmediately) {
  int calls = 0;
  Status status = RetryWithBackoff(RetryPolicy{}, [&] {
    ++calls;
    return Status::NotFound("definitive");
  });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, AttemptBudgetExhaustionKeepsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  Status status = RetryWithBackoff(policy, [&] {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, DeadlineCutsRetriesShort) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_us = 1000;
  policy.deadline_us = 2500;  // room for one backoff; 1000 + 2000 > 2500
  int calls = 0;
  Status status = RetryWithBackoff(policy, [&] {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 2) << "third attempt would overrun the deadline";
}

TEST(RetryTest, BackoffIsCappedAtMax) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_us = 100;
  policy.max_backoff_us = 300;
  policy.deadline_us = 1'000'000;
  RetryOutcome outcome;
  Status status = RetryWithBackoff(
      policy, [] { return Status::Unavailable("down"); }, &outcome);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // 100 + 200 + 300 + 300 + 300: growth stops at the cap.
  EXPECT_EQ(outcome.backoff_us, 1200);
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailures) {
  CircuitBreaker breaker(CircuitBreaker::Options{3, 2});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_TRUE(breaker.RecordFailure()) << "third consecutive failure trips";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker(CircuitBreaker::Options{2, 2});
  EXPECT_FALSE(breaker.RecordFailure());
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.RecordFailure()) << "streak restarted";
  EXPECT_TRUE(breaker.RecordFailure());
}

TEST(CircuitBreakerTest, OpenFailsFastThenHalfOpens) {
  CircuitBreaker breaker(CircuitBreaker::Options{1, 3});
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest()) << "third rejection admits a probe";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeDecidesTheState) {
  CircuitBreaker breaker(CircuitBreaker::Options{1, 1});
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_TRUE(breaker.AllowRequest());  // half-open probe
  EXPECT_TRUE(breaker.RecordFailure()) << "failed probe re-opens (a trip)";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

// ---------------------------------------------------------------- file_io

// A fresh, empty scratch directory per test.
std::string FileIoDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "gsv_file_io_" +
                          std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FileIoTest, PublishReplacesContentAndLeavesNoTmp) {
  const std::string dir = FileIoDir("publish");
  const std::string path = dir + "/FENCE";
  ASSERT_TRUE(PublishFile(path, "epoch 1\n").ok());
  ASSERT_TRUE(PublishFile(path, "epoch 2\nowner b\n").ok());
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), "epoch 2\nowner b\n");
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "FENCE");
  }
  std::filesystem::remove_all(dir);
}

TEST(FileIoTest, PublishIntoAMissingOrNonDirectoryParentFails) {
  const std::string dir = FileIoDir("publish_parent");
  EXPECT_FALSE(PublishFile(dir + "/missing/FENCE", "x").ok());
  ASSERT_TRUE(PublishFile(dir + "/plain", "not a directory").ok());
  EXPECT_FALSE(PublishFile(dir + "/plain/FENCE", "x").ok());
  std::filesystem::remove_all(dir);
}

TEST(FileIoTest, ReadFileSeparatesMissingFromUnreadable) {
  const std::string dir = FileIoDir("read");
  Result<std::string> missing = ReadFile(dir + "/absent");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  Result<std::string> directory = ReadFile(dir);
  ASSERT_FALSE(directory.ok());
  EXPECT_NE(directory.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(WriteFileDurable(dir + "/empty", "").ok());
  Result<std::string> empty = ReadFile(dir + "/empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
  std::filesystem::remove_all(dir);
}

TEST(FileIoTest, ReadFileRangeAtAndPastEof) {
  const std::string dir = FileIoDir("range");
  const std::string path = dir + "/segment";
  ASSERT_TRUE(WriteFileDurable(path, "0123456789").ok());
  EXPECT_EQ(ReadFileRange(path, 2, 3).value(), "234");
  EXPECT_EQ(ReadFileRange(path, 7, 100).value(), "789");  // short at EOF
  EXPECT_EQ(ReadFileRange(path, 10, 4).value(), "");      // at EOF
  EXPECT_EQ(ReadFileRange(path, 50, 4).value(), "");      // past EOF
  EXPECT_EQ(ReadFileRange(path, 0, 0).value(), "");
  EXPECT_EQ(ReadFileRange(dir + "/absent", 0, 4).status().code(),
            StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(FileIoTest, AppendFileAccumulatesAcrossCalls) {
  const std::string dir = FileIoDir("append");
  const std::string path = dir + "/wal-000000000001.log";
  ASSERT_TRUE(AppendFile(path, "abc").ok());
  ASSERT_TRUE(AppendFile(path, "").ok());
  ASSERT_TRUE(AppendFile(path, "defg").ok());
  EXPECT_EQ(ReadFile(path).value(), "abcdefg");
  EXPECT_FALSE(AppendFile(dir + "/missing/log", "x").ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gsv
