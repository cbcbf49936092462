#ifndef HYPPO_STORAGE_DISK_STORE_H_
#define HYPPO_STORAGE_DISK_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/artifact_store.h"

namespace hyppo::storage {

/// \brief Durable artifact store backed by a directory on disk.
///
/// Layout under the store directory:
///   store.lock              advisory flock(2) guard (see below)
///   payloads/<file>.bin     one self-describing entry per key: a header
///                           ("HYPS": key, logical size, encoded length,
///                           FNV-1a64 checksum) followed by the HYP1 bytes
///
/// The payload files are the store's only index: there is no separate
/// manifest to keep in step with them.
///
/// Exclusive-ownership contract: a store directory backs exactly one
/// live DiskArtifactStore at a time. The constructor takes an exclusive
/// advisory lock on `store.lock` (non-blocking) and fails fast through
/// init_status() when another live store — in this process or any other
/// — already holds it, instead of letting two sessions race the
/// payload files. The lock dies with the owning store (or its process),
/// so crashes never leave a stale lock behind.
///
/// Durability contract:
///  - Every Put serializes the payload (storage/serialization.h), writes
///    header + bytes to a temporary file and renames it into place. A
///    crash at any point leaves either the old entry or the new one, never
///    a torn one: the rename is the commit point, and a failed Put leaves
///    the old file untouched.
///  - Evict unlinks the payload file; the entry lives exactly as long as
///    its file.
///  - Opening a store reads only the headers under payloads/: files whose
///    header does not parse, names another key's file, or disagrees with
///    the file's length are deleted, and so are `*.tmp` leftovers.
///
/// Accounting is byte-accurate on two axes: `used_bytes()` charges the
/// caller-declared logical `size_bytes` (what the materializer budgets
/// against, matching `ArtifactInfo::size_bytes`), while
/// `payload_bytes()` reports the physical encoded bytes on disk.
///
/// Thread-safe: a single mutex guards the index; file writes happen
/// under it (writers serialize, matching InMemoryArtifactStore's
/// coarse-grained contract).
class DiskArtifactStore final : public ArtifactStore {
 public:
  /// Opens (or creates) the store rooted at `directory`, acquires its
  /// exclusive directory lock, and recovers the index from the payload
  /// file headers.
  /// Errors — including the directory being locked by another live store
  /// — are reported through init_status(); a store that failed to open
  /// behaves as empty and rejects Puts.
  explicit DiskArtifactStore(std::string directory);
  ~DiskArtifactStore() override;

  /// OK when the directory was opened/recovered successfully.
  const Status& init_status() const { return init_status_; }

  const std::string& directory() const { return directory_; }

  Status Put(const std::string& key, ArtifactPayload payload,
             int64_t size_bytes) override;
  Result<ArtifactPayload> Get(const std::string& key) const override;
  bool Contains(const std::string& key) const override;
  Status Evict(const std::string& key) override;
  Result<int64_t> SizeOf(const std::string& key) const override;
  int64_t used_bytes() const override;
  size_t num_entries() const override;
  std::vector<std::string> Keys() const override;

  /// Physical bytes of all encoded payloads on disk, headers excluded
  /// (vs. the logical used_bytes() the budget is charged in).
  int64_t payload_bytes() const;

 private:
  /// One live entry, as its payload file's header describes it.
  struct Entry {
    int64_t size_bytes = 0;     ///< logical size charged against the budget
    int64_t payload_bytes = 0;  ///< encoded HYP1 bytes after the header
    uint64_t checksum = 0;      ///< FNV-1a64 of the encoded payload
  };

  /// Takes the exclusive advisory lock on `<directory>/store.lock`;
  /// FailedPrecondition when another live store holds it.
  Status AcquireDirectoryLock();
  /// Builds the index from the payload file headers and deletes every
  /// file that cannot back an entry. Called once from the ctor.
  Status Recover();
  /// Reads + verifies one entry's payload bytes (caller holds mutex_).
  Result<std::string> ReadPayloadLocked(const std::string& key,
                                        const Entry& entry) const;

  /// Path of the payload file that holds `key`.
  std::string PayloadPath(const std::string& key) const;

  std::string directory_;
  Status init_status_;
  /// File descriptor holding the advisory directory lock; -1 when the
  /// lock was never acquired (init failure).
  int lock_fd_ = -1;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  int64_t used_bytes_ = 0;
  int64_t payload_bytes_ = 0;
};

}  // namespace hyppo::storage

#endif  // HYPPO_STORAGE_DISK_STORE_H_
