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
/// storage/disk_store.h) plus the history, kept as two files:
///   - the snapshot `HistoryPath(directory)`: the labelled hypergraph and
///     all statistics as of one checkpoint, tagged with the checkpoint's
///     generation and closed by an FNV-1a64 checksum;
///   - the log `HistoryLogPath(directory)`: a header naming the generation
///     it extends, then one frame per persist holding only the records the
///     history's journal (HistoryJournal) marked changed — artifacts
///     before tasks, keyed by canonical name and task signature, the keys
///     that survive compaction. Each frame is length-prefixed and closed
///     by an FNV-1a64 checksum.
/// ReadHistory replays the log over the snapshot; a saved catalog
/// (Runtime::SaveCatalog) and a durable session (RuntimeOptions::store_dir)
/// are the same layout and are reconciled with their store through
/// ReconcileWithStore.
///
/// Durability is that of a process crash: nothing is fsynced, so a power
/// loss can still lose or tear what the page cache held.

/// Serializes the history graph + statistics to a snapshot of
/// `generation`.
Result<std::string> SerializeHistory(const History& history,
                                     uint64_t generation = 0);

/// Reconstructs a history from SerializeHistory output, or from a
/// version-1 snapshot (no generation, no checksum). Load edges for
/// materialized artifacts and source-data registrations are rebuilt; the
/// journal of the result is empty. ParseError on damaged bytes.
Result<History> DeserializeHistory(const std::string& bytes);

/// Paths of the history snapshot and log inside a catalog or store
/// directory.
std::string HistoryPath(const std::string& directory);
std::string HistoryLogPath(const std::string& directory);

/// Where a directory's history stands on disk.
struct HistoryFiles {
  /// Generation of the snapshot (0: none, or a version-1 snapshot).
  uint64_t generation = 0;
  int64_t snapshot_bytes = 0;
  /// Length of the log's usable prefix: its header and every whole
  /// frame. 0 when the log is missing, torn inside its header, or extends
  /// another generation (a crash between a checkpoint's two steps).
  int64_t log_bytes = 0;
};

/// What ReadHistory restored.
struct StoredHistory {
  History history;
  HistoryFiles files;
  /// Log frames replayed over the snapshot.
  int64_t frames = 0;
  /// Bytes after the last whole frame (a torn or corrupt tail) that the
  /// replay ignored.
  int64_t dropped_bytes = 0;
};

/// Reads the snapshot of `directory` and replays its log, stopping at the
/// first torn or corrupt frame. IoError when the directory holds neither
/// file; ParseError when the snapshot, or a frame whose checksum holds, is
/// damaged. The restored history's journal is empty.
Result<StoredHistory> ReadHistory(const std::string& directory);

/// Writes `history` as the next generation's snapshot of `directory`
/// (tmp + rename), then resets the log to that generation. Until the reset
/// lands, replay skips the old log, whose frames the snapshot holds.
Result<HistoryFiles> WriteCheckpoint(const History& history,
                                     const std::string& directory);

/// \brief The write side of a durable session's history.
///
/// Persist appends the history's journal as one frame and clears it. It
/// writes a checkpoint instead when Compact rebuilt the history, or when
/// the log would outgrow kCheckpointLogMultiple times the snapshot, so the
/// bytes a session writes stay proportional to what it changed.
class HistoryLog {
 public:
  static constexpr int64_t kCheckpointLogMultiple = 4;

  /// Continues the history ReadHistory(directory) returned: cuts the log
  /// back to its usable prefix, so the next frame follows the last whole
  /// one.
  static Result<HistoryLog> Resume(std::string directory,
                                   const StoredHistory& stored);

  Status Persist(History* history);
  /// Writes a checkpoint of `history` and clears its journal.
  Status Checkpoint(History* history);

 private:
  HistoryLog(std::string directory, HistoryFiles files)
      : directory_(std::move(directory)), files_(files) {}

  std::string directory_;
  HistoryFiles files_;
};

/// The one reconcile step between a restored history and an opened
/// store. The history and the payloads land independently, so a crash
/// can leave either side ahead: every artifact `history` records as
/// materialized whose store entry is missing or charged a different size
/// is evicted from `history`. Returns the store keys no remaining
/// materialized artifact claims (sorted); the store itself is untouched.
Result<std::vector<std::string>> ReconcileWithStore(
    History* history, const storage::ArtifactStore& store);

}  // namespace hyppo::core

#endif  // HYPPO_CORE_HISTORY_IO_H_
