#ifndef HYPPO_STORAGE_FAULT_INJECTION_H_
#define HYPPO_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "storage/artifact_store.h"

namespace hyppo::storage {

/// Where a fault strikes in the execution layer.
enum class FaultSite {
  kStoreLoad = 0,  ///< loading a materialized artifact from the store
  kResolver = 1,   ///< resolving a raw dataset id
  kCompute = 2,    ///< running a physical operator
  kStorePut = 3,   ///< persisting an artifact into the store
};

const char* FaultSiteToString(FaultSite site);

/// What a fault does at its site.
enum class FaultKind {
  kNone = 0,
  kNotFound = 1,  ///< load: the entry has vanished
  kCorrupt = 2,   ///< load: the payload comes back unreadable
  kSlowLoad = 3,  ///< load: its charge inflated by `slow_multiplier`
  kFail = 4,      ///< resolver / compute: the operation errors out
};

const char* FaultKindToString(FaultKind kind);

/// \brief Deterministic fault schedule for chaos and differential tests.
///
/// Faults are drawn per (site, key, occurrence) from a hash of the seed —
/// NOT from a shared RNG stream — so the decision for a given load or
/// compute is identical regardless of thread interleaving, parallelism,
/// or how many other faults fired first. `occurrence` counts how many
/// times that (site, key) has been exercised, so a retried operation
/// re-draws and transient faults clear on retry.
///
/// Explicit schedule entries override the probabilistic draw, letting
/// tests script exact failure sequences ("the scaler state is corrupt on
/// its first load, fine afterwards").
struct FaultPlan {
  uint64_t seed = 0;
  /// Store-load fault rates (independent thresholds over one draw).
  double load_not_found_rate = 0.0;
  double load_corrupt_rate = 0.0;
  double load_slow_rate = 0.0;
  /// Charge multiplier applied by kSlowLoad.
  double slow_multiplier = 8.0;
  double resolver_failure_rate = 0.0;
  double compute_failure_rate = 0.0;
  /// Store-put fault rate: a Put errors out with IoError (a full disk, a
  /// failed rename). Exercises the materializer's Apply atomicity.
  double put_failure_rate = 0.0;
  /// Transient-fault model: after this many injected faults on one
  /// (site, key), further draws pass. Guarantees a bounded-retry recovery
  /// loop converges; 0 means unlimited (faults may repeat forever).
  int max_faults_per_key = 2;

  struct ScheduledFault {
    FaultSite site = FaultSite::kStoreLoad;
    std::string key;
    /// 0-based occurrence of (site, key) the fault fires on.
    int occurrence = 0;
    FaultKind kind = FaultKind::kNone;
  };
  std::vector<ScheduledFault> schedule;

  /// Convenience: one rate spread uniformly over every fault kind
  /// (NotFound/corrupt/slow loads split the rate; resolver and compute
  /// fail at the full rate).
  static FaultPlan Uniform(uint64_t seed, double rate);
};

/// \brief Thread-safe fault decision engine shared by the store's put
/// decorator and the executor's load and operator hooks, so one plan
/// governs every site and the injected-fault counters aggregate in one
/// place.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : plan_(std::move(plan)),
        site_armed_{SiteArmed(plan_, FaultSite::kStoreLoad),
                    SiteArmed(plan_, FaultSite::kResolver),
                    SiteArmed(plan_, FaultSite::kCompute),
                    SiteArmed(plan_, FaultSite::kStorePut)} {}

  struct Decision {
    FaultKind kind = FaultKind::kNone;
    double slow_multiplier = 1.0;
  };

  /// Draws the fault decision for the next occurrence of (site, key).
  /// Deterministic in (plan.seed, site, key, occurrence); safe to call
  /// from concurrent executor workers.
  Decision Decide(FaultSite site, const std::string& key);

  struct Counters {
    int64_t injected_not_found = 0;
    int64_t injected_corrupt = 0;
    int64_t injected_slow = 0;
    int64_t injected_resolver = 0;
    int64_t injected_compute = 0;
    int64_t injected_put = 0;

    int64_t total() const {
      return injected_not_found + injected_corrupt + injected_slow +
             injected_resolver + injected_compute + injected_put;
    }
  };

  /// Snapshot of the injected-fault tallies.
  Counters counters() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  /// True when `plan` can ever inject at `site` (a nonzero rate or a
  /// schedule entry). Cold sites take a lock-free fast path in Decide.
  static bool SiteArmed(const FaultPlan& plan, FaultSite site);

  FaultPlan plan_;
  /// Indexed by FaultSite; immutable after construction.
  bool site_armed_[4];
  mutable std::mutex mutex_;
  /// Occurrence count per "site|key".
  std::map<std::string, int> occurrences_;
  /// Injected-fault count per "site|key" (for max_faults_per_key).
  std::map<std::string, int> injected_;
  Counters counters_;
};

/// Applies one load fault decision to a load of `key`; the one mapping
/// every load the executor runs (store or raw, real or simulated) goes
/// through. kNotFound reports the entry vanished and kFail an unavailable
/// source, both without running `load`. kCorrupt runs `load` and hands
/// back an unreadable (empty) payload; kSlowLoad and kNone return
/// `load()` as is (the executor scales a slow load's charge by
/// `decision.slow_multiplier`).
Result<ArtifactPayload> ApplyLoadFault(
    const FaultInjector::Decision& decision, const std::string& key,
    const std::function<Result<ArtifactPayload>()>& load);

/// \brief ArtifactStore decorator that injects the plan's put faults into
/// Put(). Every other entry point forwards untouched; load faults come
/// from the executor's own hook (Executor::Options::fault_injector).
class FaultInjectingStore final : public ArtifactStore {
 public:
  FaultInjectingStore(ArtifactStore* base, FaultInjector* injector)
      : base_(base), injector_(injector) {}

  /// Injection point for kStorePut: may refuse the write with IoError
  /// before it reaches the base store (a full disk, a failed rename).
  Status Put(const std::string& key, ArtifactPayload payload,
             int64_t size_bytes) override;
  Result<ArtifactPayload> Get(const std::string& key) const override {
    return base_->Get(key);
  }
  bool Contains(const std::string& key) const override {
    return base_->Contains(key);
  }
  Status Evict(const std::string& key) override { return base_->Evict(key); }
  Result<int64_t> SizeOf(const std::string& key) const override {
    return base_->SizeOf(key);
  }
  int64_t used_bytes() const override { return base_->used_bytes(); }
  size_t num_entries() const override { return base_->num_entries(); }
  std::vector<std::string> Keys() const override { return base_->Keys(); }

 private:
  ArtifactStore* base_;
  FaultInjector* injector_;
};

}  // namespace hyppo::storage

#endif  // HYPPO_STORAGE_FAULT_INJECTION_H_
