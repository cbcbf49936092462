#include "storage/disk_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "storage/serialization.h"

namespace hyppo::storage {

namespace {

namespace fs = std::filesystem;

// Every payload file opens with a header that makes it self-describing:
//   u32 magic "HYPS" | string key (u64 length + bytes) | i64 size_bytes |
//   i64 payload_bytes | u64 payload checksum | u64 header checksum
// followed by exactly payload_bytes of HYP1 codec output. The header
// checksum is FNV-1a64 over every header byte before it.
constexpr uint32_t kEntryMagic = 0x48595053;  // "HYPS"
/// Magic plus the key's length prefix: what Recover reads first.
constexpr uint64_t kHeaderPrefixBytes = 4 + 8;
/// Header bytes after the key: three fields and the header checksum.
constexpr uint64_t kHeaderSuffixBytes = 8 + 8 + 8 + 8;

uint64_t HeaderBytes(const std::string& key) {
  return kHeaderPrefixBytes + key.size() + kHeaderSuffixBytes;
}

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

std::string EncodeHeader(const std::string& key, int64_t size_bytes,
                         int64_t payload_bytes, uint64_t checksum) {
  BinaryWriter writer;
  writer.WriteU32(kEntryMagic);
  writer.WriteString(key);
  writer.WriteI64(size_bytes);
  writer.WriteI64(payload_bytes);
  writer.WriteU64(checksum);
  writer.WriteU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

struct Header {
  std::string key;
  int64_t size_bytes = 0;
  int64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// Reads and validates the header of one payload file. ParseError when
/// the header is torn, corrupt or disagrees with the file's length; the
/// payload itself is not read.
Result<Header> ReadHeader(const fs::directory_entry& file) {
  const Status torn = Status::ParseError("store entry '" +
                                         file.path().string() +
                                         "' has a torn or corrupt header");
  std::error_code ec;
  const uint64_t file_size = file.file_size(ec);
  std::ifstream in(file.path(), std::ios::binary);
  std::string head(kHeaderPrefixBytes, '\0');
  if (ec ||
      !in.read(head.data(), static_cast<std::streamsize>(head.size()))) {
    return torn;
  }
  uint64_t key_bytes = 0;
  {
    BinaryReader prefix(head);
    HYPPO_ASSIGN_OR_RETURN(const uint32_t magic, prefix.ReadU32());
    HYPPO_ASSIGN_OR_RETURN(key_bytes, prefix.ReadU64());
    // Bound the claimed key length by the bytes present before reading.
    if (magic != kEntryMagic ||
        file_size < kHeaderPrefixBytes + kHeaderSuffixBytes ||
        key_bytes >
            file_size - kHeaderPrefixBytes - kHeaderSuffixBytes) {
      return torn;
    }
  }
  head.resize(kHeaderPrefixBytes + key_bytes + kHeaderSuffixBytes);
  if (!in.read(head.data() + kHeaderPrefixBytes,
               static_cast<std::streamsize>(head.size() -
                                            kHeaderPrefixBytes))) {
    return torn;
  }
  BinaryReader reader(head);
  Header header;
  HYPPO_RETURN_NOT_OK(reader.ReadU32().status());
  HYPPO_ASSIGN_OR_RETURN(header.key, reader.ReadString());
  HYPPO_ASSIGN_OR_RETURN(header.size_bytes, reader.ReadI64());
  HYPPO_ASSIGN_OR_RETURN(header.payload_bytes, reader.ReadI64());
  HYPPO_ASSIGN_OR_RETURN(header.checksum, reader.ReadU64());
  HYPPO_ASSIGN_OR_RETURN(const uint64_t header_checksum, reader.ReadU64());
  const std::string_view covered(head.data(), head.size() - 8);
  if (header_checksum != Fnv1a64(covered) || header.payload_bytes < 0 ||
      file_size - head.size() !=
          static_cast<uint64_t>(header.payload_bytes)) {
    return torn;
  }
  return header;
}

}  // namespace

DiskArtifactStore::DiskArtifactStore(std::string directory)
    : directory_(std::move(directory)) {
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

std::string DiskArtifactStore::PayloadPath(const std::string& key) const {
  return (fs::path(directory_) / "payloads" / FileNameForKey(key)).string();
}

Status DiskArtifactStore::Recover() {
  const fs::path payloads = fs::path(directory_) / "payloads";
  std::error_code ec;
  fs::create_directories(payloads, ec);
  if (ec) {
    return Status::IoError("cannot create store directory '" + directory_ +
                           "': " + ec.message());
  }
  // Claim exclusive ownership before reading anything: a second live
  // store over the same directory must fail fast here, not race the
  // payload files. store.lock lives at the directory root, outside
  // payloads/, so the scan below never touches it.
  HYPPO_RETURN_NOT_OK(AcquireDirectoryLock());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& file : fs::directory_iterator(payloads, ec)) {
    // A file backs an entry only when its header parses, agrees with the
    // file's length and names this very file. Everything else is garbage
    // from a crash or a foreign layout: *.tmp leftovers of interrupted
    // writes, torn files, files of another format.
    if (file.path().extension() != ".tmp") {
      Result<Header> header = ReadHeader(file);
      if (header.ok() &&
          FileNameForKey(header->key) == file.path().filename().string()) {
        used_bytes_ += header->size_bytes;
        payload_bytes_ += header->payload_bytes;
        entries_.emplace(std::move(header->key),
                         Entry{header->size_bytes, header->payload_bytes,
                               header->checksum});
        continue;
      }
    }
    std::error_code rm_ec;
    fs::remove(file.path(), rm_ec);
  }
  if (ec) {
    return Status::IoError("cannot scan store directory '" + directory_ +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status DiskArtifactStore::Put(const std::string& key, ArtifactPayload payload,
                              int64_t size_bytes) {
  HYPPO_RETURN_NOT_OK(init_status_);
  HYPPO_ASSIGN_OR_RETURN(const std::string bytes, SerializePayload(payload));
  const Entry entry{size_bytes, static_cast<int64_t>(bytes.size()),
                    Fnv1a64(bytes)};
  std::string file =
      EncodeHeader(key, entry.size_bytes, entry.payload_bytes, entry.checksum);
  file += bytes;

  std::lock_guard<std::mutex> lock(mutex_);
  // The rename into place is the commit point: a write that fails before
  // it leaves the old file, and with it the old entry, untouched.
  HYPPO_RETURN_NOT_OK(AtomicWriteFile(PayloadPath(key), file));
  auto [it, inserted] = entries_.try_emplace(key, entry);
  if (!inserted) {
    used_bytes_ -= it->second.size_bytes;
    payload_bytes_ -= it->second.payload_bytes;
    it->second = entry;
  }
  used_bytes_ += entry.size_bytes;
  payload_bytes_ += entry.payload_bytes;
  return Status::OK();
}

Result<std::string> DiskArtifactStore::ReadPayloadLocked(
    const std::string& key, const Entry& entry) const {
  const std::string path = PayloadPath(key);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  const int64_t header_bytes = static_cast<int64_t>(HeaderBytes(key));
  const int64_t file_bytes = static_cast<int64_t>(in.tellg());
  if (file_bytes != header_bytes + entry.payload_bytes) {
    return Status::IoError("artifact '" + key + "' payload file has " +
                           std::to_string(file_bytes) + " bytes, expected " +
                           std::to_string(header_bytes + entry.payload_bytes));
  }
  std::string bytes(static_cast<size_t>(entry.payload_bytes), '\0');
  in.seekg(header_bytes);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    return Status::IoError("error while reading '" + path + "'");
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
  // The entry lives exactly as long as its file: unlink, then forget.
  std::error_code ec;
  fs::remove(PayloadPath(key), ec);
  if (ec) {
    return Status::IoError("cannot delete the payload of artifact '" + key +
                           "': " + ec.message());
  }
  used_bytes_ -= it->second.size_bytes;
  payload_bytes_ -= it->second.payload_bytes;
  entries_.erase(it);
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
