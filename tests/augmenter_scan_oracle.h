#ifndef HYPPO_TESTS_AUGMENTER_SCAN_ORACLE_H_
#define HYPPO_TESTS_AUGMENTER_SCAN_ORACLE_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/dictionary.h"
#include "core/history.h"

// The augmentation path that core::Augmenter used before the history
// index, kept as the oracle for it: backward relevance is the full
// closure over every history edge slot, artifact matches go through the
// history graph's own name map, and new tasks are found against the set
// of every history task signature, rebuilt per call; depth siblings are
// found by comparing the sibling keys of every pair of fits. Splicing,
// dictionary alternatives, derive edges and load edges follow the
// production order, so both paths build the same augmentation, edge for
// edge.
namespace hyppo::core::oracle {

/// Live history edges backward-relevant to `matched`, ascending: the
/// reference for History::CollectBackwardRelevantEdges.
std::vector<EdgeId> ScanRelevantEdges(const History& history,
                                      const std::vector<NodeId>& matched);

/// Scan-path counterparts of Augmenter::Augment and
/// Augmenter::AugmentForRetrieval. Edge weights and seconds come from
/// `augmenter`'s public EdgeSeconds/EdgeWeight; no monitor is touched.
class ScanAugmenter {
 public:
  ScanAugmenter(const Dictionary* dictionary, const Augmenter* augmenter)
      : dictionary_(dictionary), augmenter_(augmenter) {}

  Result<Augmentation> Augment(const Pipeline& pipeline,
                               const History& history,
                               const Augmenter::Options& options) const;

  Result<Augmentation> AugmentForRetrieval(
      const History& history, const std::vector<std::string>& target_names,
      const Augmenter::Options& options) const;

 private:
  /// Adds dictionary alternatives, derive edges into the depth-cuttable
  /// fits among the first `pipeline_nodes` nodes, load edges, new tasks
  /// and weights.
  Status Finish(const History& history, const Augmenter::Options& options,
                int32_t pipeline_nodes, std::set<std::string>& signatures,
                Augmentation* aug) const;

  const Dictionary* dictionary_;
  const Augmenter* augmenter_;
};

}  // namespace hyppo::core::oracle

#endif  // HYPPO_TESTS_AUGMENTER_SCAN_ORACLE_H_
