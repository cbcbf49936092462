#include "storage/artifact_store.h"

namespace hyppo::storage {

int64_t PayloadSizeBytes(const ArtifactPayload& payload) {
  struct Visitor {
    int64_t operator()(std::monostate) const { return 0; }
    int64_t operator()(const ml::DatasetPtr& dataset) const {
      return dataset ? dataset->SizeBytes() : 0;
    }
    int64_t operator()(const ml::OpStatePtr& state) const {
      return state ? state->SizeBytes() : 0;
    }
    int64_t operator()(const ml::PredictionsPtr& preds) const {
      return preds ? static_cast<int64_t>(preds->size() * sizeof(double)) : 0;
    }
    int64_t operator()(double) const { return 8; }
  };
  return std::visit(Visitor{}, payload);
}

Status InMemoryArtifactStore::Put(const std::string& key,
                                  ArtifactPayload payload,
                                  int64_t size_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_bytes_ -= it->second.size_bytes;
    it->second.payload = std::move(payload);
    it->second.size_bytes = size_bytes;
  } else {
    entries_.emplace(key, Entry{std::move(payload), size_bytes});
  }
  used_bytes_ += size_bytes;
  return Status::OK();
}

Result<ArtifactPayload> InMemoryArtifactStore::Get(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  return it->second.payload;
}

bool InMemoryArtifactStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

Status InMemoryArtifactStore::Evict(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  used_bytes_ -= it->second.size_bytes;
  entries_.erase(it);
  return Status::OK();
}

Result<int64_t> InMemoryArtifactStore::SizeOf(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  return it->second.size_bytes;
}

int64_t InMemoryArtifactStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

size_t InMemoryArtifactStore::num_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> InMemoryArtifactStore::Keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    keys.push_back(key);
  }
  return keys;
}

}  // namespace hyppo::storage
