#include "storage/disk_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <utility>

#include "common/hash.h"
#include "storage/serialization.h"

namespace hyppo::storage {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kManifestMagic = 0x4859504D;  // "HYPM"
constexpr uint32_t kManifestVersion = 1;

/// Payload file name for a key: canonical names are filesystem-safe hex
/// already; anything else falls back to a hash-derived name.
std::string FileNameForKey(const std::string& key) {
  bool safe = !key.empty() && key.size() <= 80;
  for (char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      safe = false;
      break;
    }
  }
  if (safe) {
    return key + ".bin";
  }
  return "h-" + HashToHex(Fnv1a64(key)) + ".bin";
}

}  // namespace

DiskArtifactStore::DiskArtifactStore(std::string directory, StorageTier tier)
    : directory_(std::move(directory)), tier_(tier) {
  init_status_ = Recover();
}

DiskArtifactStore::~DiskArtifactStore() {
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

Status DiskArtifactStore::AcquireDirectoryLock() {
  const std::string path = (fs::path(directory_) / "store.lock").string();
  lock_fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    return Status::IoError("cannot open store lock file '" + path + "'");
  }
  // flock locks are per open file description, so two stores in one
  // process conflict just like stores in different processes — and the
  // kernel releases the lock when the holder closes or dies, so a crash
  // never strands the directory.
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    return Status::FailedPrecondition(
        "store directory '" + directory_ +
        "' is locked by another live session (store.lock is held); a "
        "store_dir must back exactly one runtime at a time — close the "
        "other session or point this one at a different directory");
  }
  return Status::OK();
}

std::string DiskArtifactStore::PayloadPath(const std::string& file) const {
  return (fs::path(directory_) / "payloads" / file).string();
}

std::string DiskArtifactStore::ManifestPath() const {
  return (fs::path(directory_) / "store.manifest").string();
}

Status DiskArtifactStore::Recover() {
  std::error_code ec;
  fs::create_directories(fs::path(directory_) / "payloads", ec);
  if (ec) {
    return Status::IoError("cannot create store directory '" + directory_ +
                           "': " + ec.message());
  }
  // Claim exclusive ownership before reading anything: a second live
  // store over the same directory must fail fast here, not race the
  // manifest. store.lock lives at the directory root, outside payloads/,
  // so recovery GC below never touches it.
  HYPPO_RETURN_NOT_OK(AcquireDirectoryLock());
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  used_bytes_ = 0;
  payload_bytes_ = 0;
  if (fs::exists(ManifestPath())) {
    HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                           ReadFileToString(ManifestPath()));
    if (bytes.size() < 8) {
      return Status::ParseError("store manifest truncated");
    }
    // The trailing u64 checksums the manifest body, so a corrupted index
    // is rejected as a whole rather than trusted entry by entry.
    const std::string body = bytes.substr(0, bytes.size() - 8);
    BinaryReader trailer_reader(bytes);
    BinaryReader reader(body);
    HYPPO_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
    if (magic != kManifestMagic) {
      return Status::ParseError("bad store manifest magic");
    }
    HYPPO_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
    if (version != kManifestVersion) {
      return Status::ParseError("unsupported store manifest version " +
                                std::to_string(version));
    }
    uint64_t trailer = 0;
    for (size_t i = 0; i < 8; ++i) {
      trailer |= static_cast<uint64_t>(static_cast<unsigned char>(
                     bytes[bytes.size() - 8 + i]))
                 << (8 * i);
    }
    if (trailer != Fnv1a64(body)) {
      return Status::ParseError("store manifest checksum mismatch");
    }
    HYPPO_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
    for (uint64_t i = 0; i < count; ++i) {
      Entry entry;
      HYPPO_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
      HYPPO_ASSIGN_OR_RETURN(entry.file, reader.ReadString());
      HYPPO_ASSIGN_OR_RETURN(entry.size_bytes, reader.ReadI64());
      HYPPO_ASSIGN_OR_RETURN(entry.payload_bytes, reader.ReadI64());
      HYPPO_ASSIGN_OR_RETURN(entry.checksum, reader.ReadU64());
      // Trust an entry only if its payload file is present with exactly
      // the recorded length; anything else is a torn leftover.
      std::error_code size_ec;
      const auto on_disk = fs::file_size(PayloadPath(entry.file), size_ec);
      if (size_ec ||
          static_cast<int64_t>(on_disk) != entry.payload_bytes) {
        continue;
      }
      used_bytes_ += entry.size_bytes;
      payload_bytes_ += entry.payload_bytes;
      entries_.emplace(std::move(key), std::move(entry));
    }
    if (!reader.AtEnd()) {
      return Status::ParseError("trailing bytes in store manifest");
    }
  }
  // Garbage-collect: *.tmp leftovers from interrupted writes and payload
  // files no live manifest entry names.
  std::set<std::string> live_files;
  for (const auto& [key, entry] : entries_) {
    live_files.insert(entry.file);
  }
  for (const auto& dir_entry :
       fs::directory_iterator(fs::path(directory_) / "payloads", ec)) {
    const std::string name = dir_entry.path().filename().string();
    if (live_files.count(name) == 0) {
      std::error_code rm_ec;
      fs::remove(dir_entry.path(), rm_ec);
    }
  }
  // Entries were dropped or files collected: rewrite the index so the
  // directory and the manifest agree again.
  return WriteManifestLocked();
}

Status DiskArtifactStore::WriteManifestLocked() {
  BinaryWriter writer;
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kManifestVersion);
  writer.WriteU64(entries_.size());
  for (const auto& [key, entry] : entries_) {
    writer.WriteString(key);
    writer.WriteString(entry.file);
    writer.WriteI64(entry.size_bytes);
    writer.WriteI64(entry.payload_bytes);
    writer.WriteU64(entry.checksum);
  }
  std::string bytes = writer.Take();
  BinaryWriter trailer;
  trailer.WriteU64(Fnv1a64(bytes));
  bytes += trailer.Take();
  return AtomicWriteFile(ManifestPath(), bytes);
}

Status DiskArtifactStore::Put(const std::string& key, ArtifactPayload payload,
                              int64_t size_bytes) {
  HYPPO_RETURN_NOT_OK(init_status_);
  HYPPO_ASSIGN_OR_RETURN(std::string bytes, SerializePayload(payload));
  const uint64_t checksum = Fnv1a64(bytes);

  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.file = FileNameForKey(key);
  entry.size_bytes = size_bytes;
  entry.payload_bytes = static_cast<int64_t>(bytes.size());
  entry.checksum = checksum;
  HYPPO_RETURN_NOT_OK(AtomicWriteFile(PayloadPath(entry.file), bytes));

  auto it = entries_.find(key);
  const bool existed = it != entries_.end();
  const Entry previous = existed ? it->second : Entry{};
  if (existed) {
    used_bytes_ -= previous.size_bytes;
    payload_bytes_ -= previous.payload_bytes;
    it->second = entry;
  } else {
    entries_.emplace(key, entry);
  }
  used_bytes_ += entry.size_bytes;
  payload_bytes_ += entry.payload_bytes;

  Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    // Roll the index back so a failed Put leaves the store exactly as it
    // was (the payload file may linger; recovery collects it).
    used_bytes_ -= entry.size_bytes;
    payload_bytes_ -= entry.payload_bytes;
    if (existed) {
      entries_[key] = previous;
      used_bytes_ += previous.size_bytes;
      payload_bytes_ += previous.payload_bytes;
    } else {
      entries_.erase(key);
    }
    return manifest;
  }
  return Status::OK();
}

Result<std::string> DiskArtifactStore::ReadPayloadLocked(
    const std::string& key, const Entry& entry) const {
  HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                         ReadFileToString(PayloadPath(entry.file)));
  if (static_cast<int64_t>(bytes.size()) != entry.payload_bytes) {
    return Status::IoError("artifact '" + key + "' payload file has " +
                           std::to_string(bytes.size()) + " bytes, expected " +
                           std::to_string(entry.payload_bytes));
  }
  if (Fnv1a64(bytes) != entry.checksum) {
    return Status::IoError("artifact '" + key +
                           "' payload failed its checksum");
  }
  return bytes;
}

Result<ArtifactPayload> DiskArtifactStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                         ReadPayloadLocked(key, it->second));
  return DeserializePayload(bytes);
}

Result<ArtifactStore::Loaded> DiskArtifactStore::Load(
    const std::string& key) const {
  const Stopwatch watch(clock_);
  HYPPO_ASSIGN_OR_RETURN(ArtifactPayload payload, Get(key));
  return Loaded{std::move(payload), watch.Elapsed()};
}

bool DiskArtifactStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

Status DiskArtifactStore::Evict(const std::string& key) {
  HYPPO_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  const Entry entry = it->second;
  entries_.erase(it);
  used_bytes_ -= entry.size_bytes;
  payload_bytes_ -= entry.payload_bytes;
  Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    entries_.emplace(key, entry);
    used_bytes_ += entry.size_bytes;
    payload_bytes_ += entry.payload_bytes;
    return manifest;
  }
  // Manifest no longer names the entry; losing the race to delete the
  // file only leaves an orphan for the next recovery pass.
  std::error_code ec;
  fs::remove(PayloadPath(entry.file), ec);
  return Status::OK();
}

Result<int64_t> DiskArtifactStore::SizeOf(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  return it->second.size_bytes;
}

int64_t DiskArtifactStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

int64_t DiskArtifactStore::payload_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return payload_bytes_;
}

size_t DiskArtifactStore::num_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> DiskArtifactStore::Keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    keys.push_back(key);
  }
  return keys;
}

}  // namespace hyppo::storage
