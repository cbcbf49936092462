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
/// storage/disk_store.h) plus the history, kept as one log
/// `HistoryLogPath(directory)`: a checksummed header, then frames, each
/// length-prefixed and closed by an FNV-1a64 checksum. The first frame is
/// a checkpoint holding every artifact and compute-task record; each later
/// frame holds only the records the history's journal (HistoryJournal)
/// marked changed since the frame before — artifacts before tasks, keyed by
/// canonical name and task signature, the keys that survive compaction.
/// ReadHistory applies the frames in order to an empty history; a saved
/// catalog (Runtime::SaveCatalog) and a durable session
/// (RuntimeOptions::store_dir) are the same layout and are reconciled with
/// their store through ReconcileWithStore.
///
/// Durability is that of a process crash: nothing is fsynced, so a power
/// loss can still lose or tear what the page cache held.

/// Serializes the history graph + statistics as a checkpoint: the log
/// header and one frame holding every record — the bytes WriteCheckpoint
/// puts in place.
Result<std::string> SerializeHistory(const History& history);

/// Reconstructs a history from a whole history log: SerializeHistory
/// output, or that followed by whole frames. Load edges for materialized
/// artifacts and source-data registrations are rebuilt; the journal of the
/// result is empty. ParseError on any damaged or torn byte.
Result<History> DeserializeHistory(const std::string& bytes);

/// Path of the history log inside a catalog or store directory.
std::string HistoryLogPath(const std::string& directory);

/// Where a directory's history log stands on disk.
struct HistoryFiles {
  /// Length of the checkpoint frame, the log's first.
  int64_t checkpoint_bytes = 0;
  /// Length of the log's usable prefix: its header, the checkpoint frame
  /// and every whole frame after it. 0 when there is no log.
  int64_t log_bytes = 0;
};

/// What ReadHistory restored.
struct StoredHistory {
  History history;
  HistoryFiles files;
  /// Frames replayed after the checkpoint frame.
  int64_t frames = 0;
  /// Bytes after the last whole frame (a torn or corrupt tail) that the
  /// replay ignored.
  int64_t dropped_bytes = 0;
};

/// Replays the log of `directory`, stopping at the first torn or corrupt
/// frame after the checkpoint frame. A directory without a log, or no
/// directory, holds the empty history (`files.log_bytes` 0). ParseError
/// when the header, the checkpoint frame, or a later frame whose checksum
/// holds is damaged; FailedPrecondition, touching no file, when the
/// directory holds the history layout of an older build. The restored
/// history's journal is empty.
Result<StoredHistory> ReadHistory(const std::string& directory);

/// Replaces the log of `directory` with a checkpoint of `history` (tmp +
/// rename): a crash leaves either the old log or the new one.
Result<HistoryFiles> WriteCheckpoint(const History& history,
                                     const std::string& directory);

/// \brief The write side of a durable session's history.
///
/// Persist appends the history's journal as one frame and clears it. It
/// writes a checkpoint instead when there is no log yet, when Compact
/// rebuilt the history, or when the frames after the checkpoint frame
/// would outgrow kCheckpointLogMultiple times that frame, so the bytes a
/// session writes stay proportional to what it changed.
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
