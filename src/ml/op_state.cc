#include "ml/op_state.h"

namespace hyppo::ml {

int64_t VectorState::SizeBytes() const {
  int64_t bytes = 0;
  for (const auto& [key, vec] : vectors) {
    bytes += static_cast<int64_t>(key.size()) +
             static_cast<int64_t>(vec.size() * sizeof(double));
  }
  bytes += static_cast<int64_t>(scalars.size() * (sizeof(double) + 8));
  return bytes;
}

int64_t ForestState::SizeBytes() const {
  int64_t bytes = 32;
  for (const FlatTree& tree : trees) {
    bytes += tree.SizeBytes();
  }
  bytes += static_cast<int64_t>(tree_weights.size() * sizeof(double));
  return bytes;
}

int64_t EnsembleState::SizeBytes() const {
  // The ensemble state itself is tiny; base states are separate artifacts
  // and are not double-counted here (they are charged under their own
  // nodes in the history).
  int64_t bytes = 64;
  bytes += static_cast<int64_t>(meta_weights.size() * sizeof(double));
  for (const auto& name : base_logical_ops) {
    bytes += static_cast<int64_t>(name.size());
  }
  for (const auto& name : base_impls) {
    bytes += static_cast<int64_t>(name.size());
  }
  return bytes;
}

}  // namespace hyppo::ml
