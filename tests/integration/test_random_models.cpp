// Sharded differential fuzz harness: random small distributed programs
// (see tests/support/model_gen.hpp) are fed to the repair algorithms
// across the batch thread pool; *whenever* repair claims success, both the
// symbolic verifier and the explicit-state checker must accept the result.
// Failures are expected and fine — unsound successes are not.
//
// Environment knobs:
//   LR_FUZZ_SEED=N     base seed (model i uses seed N+i); default 20160523
//   LR_FUZZ_MODELS=N   models in the main lazy sweep; default 512
//   LR_FUZZ_JOBS=N     worker threads; default min(8, hardware)
//
// On an unsound success the harness immediately prints the exact failing
// seed and a one-line repro command, e.g.
//   LR_FUZZ_SEED=20160711 LR_FUZZ_MODELS=1 ./test_random_models
// which replays exactly that model (model_seed(base, 0) == base).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "explicit_model/explicit_model.hpp"
#include "program/distributed_program.hpp"
#include "repair/cautious.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "../support/model_gen.hpp"
#include "../support/realized_round.hpp"

namespace lr::repair {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

std::uint64_t base_seed() { return env_u64("LR_FUZZ_SEED", 20160523ull); }

std::size_t sweep_models(std::size_t fallback) {
  return static_cast<std::size_t>(env_u64("LR_FUZZ_MODELS", fallback));
}

std::size_t sweep_jobs() {
  const std::size_t hw = support::ThreadPool::hardware_threads();
  return static_cast<std::size_t>(
      env_u64("LR_FUZZ_JOBS", std::min<std::size_t>(8, hw)));
}

/// Collects unsound-success reports from the worker threads. gtest
/// assertions are not thread-safe, so shards push messages here and the
/// main thread fails the test after the pool drains.
class FailureLog {
 public:
  explicit FailureLog(const char* suite) : suite_(suite) {}

  /// Records one unsound success and immediately prints the seed plus a
  /// one-line repro command (so the evidence survives even a later crash).
  void record(std::uint64_t seed, const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(stderr,
                 "[fuzz] UNSOUND seed=%llu: %s\n"
                 "[fuzz] repro: LR_FUZZ_SEED=%llu LR_FUZZ_MODELS=1 "
                 "./test_random_models --gtest_filter='*%s*'\n",
                 static_cast<unsigned long long>(seed), message.c_str(),
                 static_cast<unsigned long long>(seed), suite_);
    messages_.push_back("seed " + std::to_string(seed) + ": " + message);
  }

  /// Replays the log as test failures; call from the main thread.
  void flush() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& message : messages_) {
      ADD_FAILURE() << message;
    }
  }

 private:
  const char* suite_;
  std::mutex mutex_;
  std::vector<std::string> messages_;
};

TEST(ShardedFuzzTest, LazySuccessesAreSound) {
  const std::uint64_t base = base_seed();
  const std::size_t count = sweep_models(512);
  FailureLog failures("Lazy");
  std::atomic<int> successes{0};
  support::parallel_for(count, sweep_jobs(), [&](std::size_t i) {
    const std::uint64_t seed = testgen::model_seed(base, i);
    support::SplitMix64 rng(seed);
    auto program = testgen::random_program(rng);
    const RepairResult result = lazy_repair(*program);
    if (!result.success) return;
    successes.fetch_add(1, std::memory_order_relaxed);
    const VerifyReport report = verify_masking(*program, result);
    if (!report.ok) {
      std::string detail = "symbolic verifier rejected lazy success";
      for (const auto& f : report.failures) detail += "; " + f;
      failures.record(seed, detail);
    }
    xmodel::ExplicitModel model(*program);
    const auto explicit_report = model.verify(result);
    if (!explicit_report.ok) {
      std::string detail = "explicit-state checker rejected lazy success";
      for (const auto& f : explicit_report.failures) detail += "; " + f;
      failures.record(seed, detail);
    }
  });
  failures.flush();
  // The generator is tuned so a healthy fraction of models is repairable;
  // a sweep that never succeeds would test nothing.
  EXPECT_GT(successes.load(), 0) << "base seed " << base;
}

TEST(ShardedFuzzTest, CautiousSuccessesAreSound) {
  const std::uint64_t base = base_seed() ^ 0xCAB005Eull;
  const std::size_t count = sweep_models(128);
  FailureLog failures("Cautious");
  std::atomic<int> successes{0};
  Options options;
  options.group_method = GroupMethod::kOneShot;
  support::parallel_for(count, sweep_jobs(), [&](std::size_t i) {
    const std::uint64_t seed = testgen::model_seed(base, i);
    support::SplitMix64 rng(seed);
    auto program = testgen::random_program(rng);
    const RepairResult result = cautious_repair(*program, options);
    if (!result.success) return;
    successes.fetch_add(1, std::memory_order_relaxed);
    const VerifyReport report = verify_masking(*program, result);
    if (!report.ok) {
      std::string detail = "symbolic verifier rejected cautious success";
      for (const auto& f : report.failures) detail += "; " + f;
      failures.record(seed, detail);
    }
  });
  failures.flush();
  EXPECT_GT(successes.load(), 0) << "base seed " << base;
}

TEST(ShardedFuzzTest, FailsafeSuccessesAreSound) {
  const std::uint64_t base = base_seed() ^ 0xFA15AFEull;
  const std::size_t count = sweep_models(128);
  FailureLog failures("Failsafe");
  std::atomic<int> successes{0};
  Options options;
  options.level = ToleranceLevel::kFailsafe;
  support::parallel_for(count, sweep_jobs(), [&](std::size_t i) {
    const std::uint64_t seed = testgen::model_seed(base, i);
    support::SplitMix64 rng(seed);
    auto program = testgen::random_program(rng);
    const RepairResult result = lazy_repair(*program, options);
    if (!result.success) return;
    successes.fetch_add(1, std::memory_order_relaxed);
    const VerifyReport report =
        verify_masking(*program, result, ToleranceLevel::kFailsafe);
    if (!report.ok) {
      std::string detail = "symbolic verifier rejected failsafe success";
      for (const auto& f : report.failures) detail += "; " + f;
      failures.record(seed, detail);
    }
  });
  failures.flush();
  EXPECT_GT(successes.load(), 0) << "base seed " << base;
}

/// Lazy repair's local livelock proof (a certificate from
/// find_livelock_certificate on the repair-side O) against the global νZ,
/// on each model's realized deltas before livelock elimination: whenever
/// the proof says that no run stays outside the invariant forever, the νZ
/// over those states must be empty.
TEST(ShardedFuzzTest, LayeredLivelockProofAgreesWithTheNuZ) {
  const std::uint64_t base = base_seed() ^ 0x1A7E125ull;
  const std::size_t count = sweep_models(512);
  FailureLog failures("Layered");
  std::atomic<int> proofs{0};
  support::parallel_for(count, sweep_jobs(), [&](std::size_t i) {
    const std::uint64_t seed = testgen::model_seed(base, i);
    support::SplitMix64 rng(seed);
    auto program = testgen::random_program(rng);
    const testgen::RealizedRound round = testgen::realize_first_round(*program);
    if (!round.ok ||
        !find_livelock_certificate(*program, round.outside, round.deltas)
             .has_value()) {
      return;
    }
    proofs.fetch_add(1, std::memory_order_relaxed);
    if (!testgen::livelock_states(program->space(), round.deltas,
                                  round.outside)
             .is_false()) {
      failures.record(seed, "layered proof missed a livelock the νZ found");
    }
  });
  failures.flush();
  // A directed ring's process graph is always cyclic, so the proof must
  // never hold there; every other topology must exercise it.
  if (testgen::topology_from_env() == testgen::Topology::kRing) {
    EXPECT_EQ(proofs.load(), 0) << "base seed " << base;
  } else {
    EXPECT_GT(proofs.load(), 0) << "base seed " << base;
  }
}

/// The verifier's livelock certificate against the νZ it stands in for, on
/// each lazy success and on each model's realized deltas before livelock
/// elimination (which may livelock): a certified verification must have an
/// empty νZ, and every verdict must be the νZ's.
TEST(ShardedFuzzTest, LivelockCertificateAgreesWithTheNuZ) {
  const std::uint64_t base = base_seed() ^ 0xCE271F1ull;
  const std::size_t count = sweep_models(512);
  FailureLog failures("Certificate");
  std::atomic<int> certified{0};
  support::parallel_for(count, sweep_jobs(), [&](std::size_t i) {
    const std::uint64_t seed = testgen::model_seed(base, i);
    support::SplitMix64 rng(seed);
    auto program = testgen::random_program(rng);
    const auto check = [&](const RepairResult& result, const char* what) {
      const VerifyReport report = verify_masking(*program, result);
      const bool nu_z_free =
          testgen::stuttering_livelock_states(
              *program, result.process_deltas,
              testgen::verifier_outside(*program, result.process_deltas,
                                        result.invariant))
              .is_false();
      if (report.livelock_certified) {
        certified.fetch_add(1, std::memory_order_relaxed);
        if (!nu_z_free) {
          failures.record(seed, std::string(what) +
                                    ": certified, but the νZ is not empty");
        }
      }
      if (report.livelock_free != nu_z_free) {
        failures.record(seed, std::string(what) +
                                  ": livelock verdict differs from the νZ");
      }
    };
    const testgen::RealizedRound round = testgen::realize_first_round(*program);
    if (round.ok) {
      RepairResult realized;
      realized.success = true;
      realized.invariant = round.invariant;
      realized.fault_span = round.tolerance;
      realized.process_deltas = round.deltas;
      check(realized, "realized round");
    }
    const RepairResult result = lazy_repair(*program);
    if (result.success) check(result, "lazy success");
  });
  failures.flush();
  // A directed ring's process graph is always cyclic, so the certificate
  // never applies there; every other topology must exercise it.
  if (testgen::topology_from_env() == testgen::Topology::kRing) {
    EXPECT_EQ(certified.load(), 0) << "base seed " << base;
  } else {
    EXPECT_GT(certified.load(), 0) << "base seed " << base;
  }
}

/// The sweep must be reproducible: the same base seed produces the same
/// models, so a shard's failure replays exactly from the printed command.
TEST(ShardedFuzzTest, ShardingIsDeterministic) {
  const std::uint64_t base = 97ull;
  for (const std::uint64_t index : {0ull, 7ull, 511ull}) {
    const std::uint64_t seed = testgen::model_seed(base, index);
    support::SplitMix64 rng_a(seed);
    support::SplitMix64 rng_b(seed);
    auto a = testgen::random_program(rng_a);
    auto b = testgen::random_program(rng_b);
    const RepairResult ra = lazy_repair(*a);
    const RepairResult rb = lazy_repair(*b);
    EXPECT_EQ(ra.success, rb.success) << "index " << index;
    if (ra.success && rb.success) {
      EXPECT_EQ(ra.stats.invariant_states, rb.stats.invariant_states);
      EXPECT_EQ(ra.stats.span_states, rb.stats.span_states);
    }
  }
}

}  // namespace
}  // namespace lr::repair
