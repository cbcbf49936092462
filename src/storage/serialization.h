#ifndef HYPPO_STORAGE_SERIALIZATION_H_
#define HYPPO_STORAGE_SERIALIZATION_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "storage/artifact_store.h"

namespace hyppo::storage {

/// \brief Binary (de)serialization of artifact payloads.
///
/// This is what makes the history a cross-session cache (the paper's
/// *across-experiments* reuse, §I): materialized artifacts survive process
/// restarts. The format is a tagged little-endian binary encoding covering
/// every payload kind — datasets, all op-state variants (vector, tree,
/// forest, ensemble — ensembles recursively embed their base states),
/// prediction vectors, and scalar values.
///
/// Format stability: a 4-byte magic + version header guards against
/// incompatible readers; strings and vectors are length-prefixed.

/// Serializes a payload into a byte buffer.
Result<std::string> SerializePayload(const ArtifactPayload& payload);

/// Reconstructs a payload from bytes produced by SerializePayload.
Result<ArtifactPayload> DeserializePayload(const std::string& bytes);

/// Reads a whole file into a byte string.
Result<std::string> ReadFileToString(const std::string& path);

/// Crash-safe file write: bytes land in `<path>.tmp` and are renamed into
/// place, so `path` only ever holds a complete old or new version.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// \brief Little-endian binary writer over a growing string buffer.
class BinaryWriter {
 public:
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }
  void WriteDouble(double value);
  void WriteBool(bool value) { buffer_.push_back(value ? 1 : 0); }
  void WriteString(const std::string& value);
  void WriteDoubleVector(const std::vector<double>& values);
  void WriteI32Vector(const std::vector<int32_t>& values);

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// \brief Bounds-checked reader over a byte buffer.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buffer) : buffer_(buffer) {}

  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<std::vector<double>> ReadDoubleVector();
  Result<std::vector<int32_t>> ReadI32Vector();

  bool AtEnd() const { return position_ == buffer_.size(); }
  /// Bytes left to read — lets decoders sanity-check length prefixes
  /// before allocating (a corrupt header must not drive a huge reserve).
  size_t remaining() const { return buffer_.size() - position_; }

 private:
  Status Need(size_t bytes) const;

  const std::string& buffer_;
  size_t position_ = 0;
};

}  // namespace hyppo::storage

#endif  // HYPPO_STORAGE_SERIALIZATION_H_
