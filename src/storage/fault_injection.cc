#include "storage/fault_injection.h"

#include "common/hash.h"

namespace hyppo::storage {

namespace {

std::string SiteKey(FaultSite site, const std::string& key) {
  return std::string(FaultSiteToString(site)) + "|" + key;
}

// Uniform double in [0, 1) from a deterministic hash of (seed, site, key,
// occurrence).
double DrawUniform(uint64_t seed, FaultSite site, const std::string& key,
                   int occurrence) {
  uint64_t h = HashCombine(seed, Fnv1a64(key));
  h = HashCombine(h, (static_cast<uint64_t>(site) << 32) |
                         static_cast<uint64_t>(occurrence));
  return static_cast<double>(Mix64(h) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultSiteToString(FaultSite site) {
  switch (site) {
    case FaultSite::kStoreLoad:
      return "store-load";
    case FaultSite::kResolver:
      return "resolver";
    case FaultSite::kCompute:
      return "compute";
    case FaultSite::kStorePut:
      return "store-put";
  }
  return "unknown";
}

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kNotFound:
      return "not-found";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kSlowLoad:
      return "slow-load";
    case FaultKind::kFail:
      return "fail";
  }
  return "unknown";
}

FaultPlan FaultPlan::Uniform(uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.load_not_found_rate = rate / 3.0;
  plan.load_corrupt_rate = rate / 3.0;
  plan.load_slow_rate = rate / 3.0;
  plan.resolver_failure_rate = rate;
  plan.compute_failure_rate = rate;
  return plan;
}

bool FaultInjector::SiteArmed(const FaultPlan& plan, FaultSite site) {
  for (const FaultPlan::ScheduledFault& f : plan.schedule) {
    if (f.site == site) {
      return true;
    }
  }
  switch (site) {
    case FaultSite::kStoreLoad:
      return plan.load_not_found_rate > 0.0 || plan.load_corrupt_rate > 0.0 ||
             plan.load_slow_rate > 0.0;
    case FaultSite::kResolver:
      return plan.resolver_failure_rate > 0.0;
    case FaultSite::kCompute:
      return plan.compute_failure_rate > 0.0;
    case FaultSite::kStorePut:
      return plan.put_failure_rate > 0.0;
  }
  return false;
}

FaultInjector::Decision FaultInjector::Decide(FaultSite site,
                                              const std::string& key) {
  // Fast path: a site whose rates are zero and that no schedule entry
  // names can never inject, so skip the bookkeeping entirely. This keeps
  // an armed-but-silent injector within noise of running with none (the
  // fault-hook overhead column of bench_fig9b_overhead).
  if (!site_armed_[static_cast<size_t>(site)]) {
    return Decision{};
  }
  const std::string sk = SiteKey(site, key);
  int occurrence = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    occurrence = occurrences_[sk]++;
  }
  FaultKind kind = FaultKind::kNone;
  bool scheduled = false;
  for (const FaultPlan::ScheduledFault& f : plan_.schedule) {
    if (f.site == site && f.occurrence == occurrence && f.key == key) {
      kind = f.kind;
      scheduled = true;
      break;
    }
  }
  if (!scheduled) {
    // Transient-fault cap: once a key has absorbed its share of faults,
    // further draws pass so bounded retries converge.
    if (plan_.max_faults_per_key > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (injected_[sk] >= plan_.max_faults_per_key) {
        return Decision{};
      }
    }
    const double u = DrawUniform(plan_.seed, site, key, occurrence);
    switch (site) {
      case FaultSite::kStoreLoad:
        if (u < plan_.load_not_found_rate) {
          kind = FaultKind::kNotFound;
        } else if (u < plan_.load_not_found_rate + plan_.load_corrupt_rate) {
          kind = FaultKind::kCorrupt;
        } else if (u < plan_.load_not_found_rate + plan_.load_corrupt_rate +
                           plan_.load_slow_rate) {
          kind = FaultKind::kSlowLoad;
        }
        break;
      case FaultSite::kResolver:
        if (u < plan_.resolver_failure_rate) {
          kind = FaultKind::kFail;
        }
        break;
      case FaultSite::kCompute:
        if (u < plan_.compute_failure_rate) {
          kind = FaultKind::kFail;
        }
        break;
      case FaultSite::kStorePut:
        if (u < plan_.put_failure_rate) {
          kind = FaultKind::kFail;
        }
        break;
    }
  }
  Decision decision;
  decision.kind = kind;
  if (kind == FaultKind::kSlowLoad) {
    decision.slow_multiplier = plan_.slow_multiplier;
  }
  if (kind != FaultKind::kNone) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++injected_[sk];
    switch (kind) {
      case FaultKind::kNotFound:
        ++counters_.injected_not_found;
        break;
      case FaultKind::kCorrupt:
        ++counters_.injected_corrupt;
        break;
      case FaultKind::kSlowLoad:
        ++counters_.injected_slow;
        break;
      case FaultKind::kFail:
        if (site == FaultSite::kResolver) {
          ++counters_.injected_resolver;
        } else if (site == FaultSite::kStorePut) {
          ++counters_.injected_put;
        } else {
          ++counters_.injected_compute;
        }
        break;
      case FaultKind::kNone:
        break;
    }
  }
  return decision;
}

FaultInjector::Counters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

Status FaultInjectingStore::Put(const std::string& key,
                                ArtifactPayload payload, int64_t size_bytes) {
  const FaultInjector::Decision decision =
      injector_->Decide(FaultSite::kStorePut, key);
  if (decision.kind == FaultKind::kFail) {
    return Status::IoError("injected fault: store refused to persist '" +
                           key + "'");
  }
  return base_->Put(key, std::move(payload), size_bytes);
}

Result<ArtifactPayload> ApplyLoadFault(
    const FaultInjector::Decision& decision, const std::string& key,
    const std::function<Result<ArtifactPayload>()>& load) {
  switch (decision.kind) {
    case FaultKind::kNotFound:
      return Status::NotFound("injected fault: artifact '" + key +
                              "' vanished from the store");
    case FaultKind::kFail:
      return Status::IoError("injected fault: source of '" + key +
                             "' is unavailable");
    case FaultKind::kCorrupt: {
      // The loader's validation rejects the empty payload as corruption
      // (and the recovery loop evicts the entry).
      HYPPO_RETURN_NOT_OK(load().status());
      return ArtifactPayload(std::monostate{});
    }
    case FaultKind::kSlowLoad:
    case FaultKind::kNone:
      break;
  }
  return load();
}

}  // namespace hyppo::storage
