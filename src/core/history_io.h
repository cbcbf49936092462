#ifndef HYPPO_CORE_HISTORY_IO_H_
#define HYPPO_CORE_HISTORY_IO_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/history.h"
#include "storage/artifact_store.h"

namespace hyppo::core {

/// \brief Catalog persistence: the history H on disk, and its
/// reconciliation with the materialized-artifact store.
///
/// This is what turns HYPPO's history into the paper's *across-experiments*
/// cache (§I): one data scientist's session can be saved and another
/// session — or another user working on the same data — loads it and
/// immediately reuses recorded derivations and materialized artifacts.
///
/// Layout: a catalog is one storage::DiskArtifactStore directory
/// (self-describing `payloads/` files and `store.lock`; see
/// storage/disk_store.h)
/// plus the history snapshot `HistoryPath(directory)`, which holds the
/// labelled hypergraph and all statistics (binary, see
/// storage/serialization.h for the encoding primitives). A saved catalog
/// (Runtime::SaveCatalog) and a durable session (RuntimeOptions::store_dir)
/// are the same layout and are read back through ReconcileWithStore.

/// Serializes the history graph + statistics to a byte buffer.
Result<std::string> SerializeHistory(const History& history);

/// Reconstructs a history from SerializeHistory output. Load edges for
/// materialized artifacts and source-data registrations are rebuilt.
Result<History> DeserializeHistory(const std::string& bytes);

/// Path of the history snapshot inside a catalog or store directory.
std::string HistoryPath(const std::string& directory);

/// Atomically writes the history snapshot into `directory`.
Status WriteHistorySnapshot(const History& history,
                            const std::string& directory);

/// Reads the history snapshot of `directory`; IoError when it has none.
Result<History> ReadHistorySnapshot(const std::string& directory);

/// The one reconcile step between a deserialized history and an opened
/// store. The snapshot and the payloads land independently, so a crash
/// can leave either side ahead: every artifact `history` records as
/// materialized whose store entry is missing or charged a different size
/// is evicted from `history`. Returns the store keys no remaining
/// materialized artifact claims (sorted); the store itself is untouched.
Result<std::vector<std::string>> ReconcileWithStore(
    History* history, const storage::ArtifactStore& store);

}  // namespace hyppo::core

#endif  // HYPPO_CORE_HISTORY_IO_H_
