#ifndef HYPPO_STORAGE_ARTIFACT_STORE_H_
#define HYPPO_STORAGE_ARTIFACT_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/op_state.h"
#include "ml/operator.h"

namespace hyppo::storage {

/// \brief The value of an artifact: a dataset, a fitted op-state, a
/// prediction vector, or a scalar metric value. Monostate marks artifacts
/// whose value is only simulated (planner-scalability experiments).
using ArtifactPayload =
    std::variant<std::monostate, ml::DatasetPtr, ml::OpStatePtr,
                 ml::PredictionsPtr, double>;

/// Byte size of a payload (0 for monostate).
int64_t PayloadSizeBytes(const ArtifactPayload& payload);

/// \brief Cost model of a storage tier: a fixed per-request latency plus a
/// bandwidth term. Loading artifact v costs
///   latency + size(v) / read_bandwidth   seconds.
struct StorageTier {
  double read_bandwidth_bytes_per_sec = 400e6;
  double write_bandwidth_bytes_per_sec = 250e6;
  double latency_seconds = 2e-3;

  double LoadSeconds(int64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / read_bandwidth_bytes_per_sec;
  }
  double StoreSeconds(int64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / write_bandwidth_bytes_per_sec;
  }

  /// A local materialization tier (fast SSD-like).
  static StorageTier Local() { return StorageTier{}; }
  /// The remote tier raw datasets live on (slower, higher latency) —
  /// loading raw data is a real task with a real cost, as in the paper's
  /// source node s.
  static StorageTier Remote() {
    StorageTier tier;
    tier.read_bandwidth_bytes_per_sec = 150e6;
    tier.write_bandwidth_bytes_per_sec = 80e6;
    tier.latency_seconds = 1e-2;
    return tier;
  }
};

/// \brief Key-value store interface for materialized artifacts with byte
/// accounting.
///
/// The materializer (core/materializer.h) decides *what* lives here under
/// the storage budget; the store tracks usage. Load costs are not the
/// store's business: the executor times real loads and charges simulated
/// ones the augmenter's StorageTier estimate. Keys are canonical artifact
/// names. Implementations:
/// InMemoryArtifactStore (the production backend, safe under concurrent
/// access from the parallel executor) and DiskArtifactStore
/// (storage/disk_store.h, the durable store behind
/// RuntimeOptions::store_dir and saved catalogs). FaultInjectingStore
/// (storage/fault_injection.h) only wraps one to fail puts in the
/// materializer's chaos test.
class ArtifactStore {
 public:
  virtual ~ArtifactStore() = default;

  /// Stores a payload under `key`. `size_bytes` is charged against usage
  /// (passed explicitly so simulated artifacts can carry estimated sizes).
  virtual Status Put(const std::string& key, ArtifactPayload payload,
                     int64_t size_bytes) = 0;

  /// Retrieves a payload; NotFound if absent.
  virtual Result<ArtifactPayload> Get(const std::string& key) const = 0;

  virtual bool Contains(const std::string& key) const = 0;

  /// Removes an entry; NotFound if absent.
  virtual Status Evict(const std::string& key) = 0;

  /// Size on storage of one entry; NotFound if absent.
  virtual Result<int64_t> SizeOf(const std::string& key) const = 0;

  virtual int64_t used_bytes() const = 0;
  virtual size_t num_entries() const = 0;
  /// All stored keys, sorted (for persistence and inspection).
  virtual std::vector<std::string> Keys() const = 0;
};

/// \brief The production artifact store: an in-memory map guarded by a
/// mutex, safe under concurrent Get/Put/Evict from the parallel executor's
/// worker threads.
class InMemoryArtifactStore final : public ArtifactStore {
 public:
  Status Put(const std::string& key, ArtifactPayload payload,
             int64_t size_bytes) override;
  Result<ArtifactPayload> Get(const std::string& key) const override;
  bool Contains(const std::string& key) const override;
  Status Evict(const std::string& key) override;
  Result<int64_t> SizeOf(const std::string& key) const override;
  int64_t used_bytes() const override;
  size_t num_entries() const override;
  std::vector<std::string> Keys() const override;

 private:
  struct Entry {
    ArtifactPayload payload;
    int64_t size_bytes = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  int64_t used_bytes_ = 0;
};

}  // namespace hyppo::storage

#endif  // HYPPO_STORAGE_ARTIFACT_STORE_H_
