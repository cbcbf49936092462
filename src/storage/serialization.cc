#include "storage/serialization.h"

#include <cstring>
#include <filesystem>
#include <fstream>

namespace hyppo::storage {

namespace {

constexpr uint32_t kMagic = 0x48595031;  // "HYP1"

enum class PayloadTag : uint32_t {
  kMonostate = 0,
  kDataset = 1,
  kVectorState = 2,
  kTreeState = 3,
  kForestState = 4,
  kEnsembleState = 5,
  kPredictions = 6,
  kValue = 7,
};

void WriteFlatTree(BinaryWriter& writer, const ml::FlatTree& tree) {
  writer.WriteI32Vector(tree.feature);
  writer.WriteDoubleVector(tree.threshold);
  writer.WriteI32Vector(tree.left);
  writer.WriteI32Vector(tree.right);
  writer.WriteDoubleVector(tree.value);
}

Result<ml::FlatTree> ReadFlatTree(BinaryReader& reader) {
  ml::FlatTree tree;
  HYPPO_ASSIGN_OR_RETURN(tree.feature, reader.ReadI32Vector());
  HYPPO_ASSIGN_OR_RETURN(tree.threshold, reader.ReadDoubleVector());
  HYPPO_ASSIGN_OR_RETURN(tree.left, reader.ReadI32Vector());
  HYPPO_ASSIGN_OR_RETURN(tree.right, reader.ReadI32Vector());
  HYPPO_ASSIGN_OR_RETURN(tree.value, reader.ReadDoubleVector());
  const size_t n = tree.feature.size();
  if (tree.threshold.size() != n || tree.left.size() != n ||
      tree.right.size() != n || tree.value.size() != n) {
    return Status::ParseError("flat tree arrays have inconsistent sizes");
  }
  return tree;
}

Status WriteState(BinaryWriter& writer, const ml::OpState& state);

Result<ml::OpStatePtr> ReadState(BinaryReader& reader);

Status WriteStateBody(BinaryWriter& writer, const ml::OpState& state) {
  if (const auto* vs = dynamic_cast<const ml::VectorState*>(&state)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kVectorState));
    writer.WriteString(state.logical_op());
    writer.WriteU64(vs->vectors.size());
    for (const auto& [key, values] : vs->vectors) {
      writer.WriteString(key);
      writer.WriteDoubleVector(values);
    }
    writer.WriteU64(vs->scalars.size());
    for (const auto& [key, value] : vs->scalars) {
      writer.WriteString(key);
      writer.WriteDouble(value);
    }
    return Status::OK();
  }
  if (const auto* ts = dynamic_cast<const ml::TreeState*>(&state)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kTreeState));
    writer.WriteString(state.logical_op());
    writer.WriteBool(ts->is_classifier);
    WriteFlatTree(writer, ts->tree);
    return Status::OK();
  }
  if (const auto* fs = dynamic_cast<const ml::ForestState*>(&state)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kForestState));
    writer.WriteString(state.logical_op());
    writer.WriteBool(fs->is_classifier);
    writer.WriteDouble(fs->base_prediction);
    writer.WriteDoubleVector(fs->tree_weights);
    writer.WriteU64(fs->trees.size());
    for (const ml::FlatTree& tree : fs->trees) {
      WriteFlatTree(writer, tree);
    }
    return Status::OK();
  }
  if (const auto* es = dynamic_cast<const ml::EnsembleState*>(&state)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kEnsembleState));
    writer.WriteString(state.logical_op());
    writer.WriteDouble(es->meta_intercept);
    writer.WriteDoubleVector(es->meta_weights);
    writer.WriteU64(es->base_impls.size());
    for (const std::string& impl : es->base_impls) {
      writer.WriteString(impl);
    }
    writer.WriteU64(es->base_logical_ops.size());
    for (const std::string& lop : es->base_logical_ops) {
      writer.WriteString(lop);
    }
    writer.WriteU64(es->base_states.size());
    for (const ml::OpStatePtr& base : es->base_states) {
      HYPPO_RETURN_NOT_OK(WriteState(writer, *base));
    }
    return Status::OK();
  }
  return Status::NotImplemented("unknown op-state subtype '" +
                                state.logical_op() + "'");
}

Status WriteState(BinaryWriter& writer, const ml::OpState& state) {
  return WriteStateBody(writer, state);
}

Result<ml::OpStatePtr> ReadStateBody(BinaryReader& reader, PayloadTag tag) {
  switch (tag) {
    case PayloadTag::kVectorState: {
      HYPPO_ASSIGN_OR_RETURN(std::string lop, reader.ReadString());
      auto state = std::make_shared<ml::VectorState>(lop);
      HYPPO_ASSIGN_OR_RETURN(uint64_t vectors, reader.ReadU64());
      for (uint64_t i = 0; i < vectors; ++i) {
        HYPPO_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
        HYPPO_ASSIGN_OR_RETURN(state->vectors[key],
                               reader.ReadDoubleVector());
      }
      HYPPO_ASSIGN_OR_RETURN(uint64_t scalars, reader.ReadU64());
      for (uint64_t i = 0; i < scalars; ++i) {
        HYPPO_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
        HYPPO_ASSIGN_OR_RETURN(state->scalars[key], reader.ReadDouble());
      }
      return ml::OpStatePtr(std::move(state));
    }
    case PayloadTag::kTreeState: {
      HYPPO_ASSIGN_OR_RETURN(std::string lop, reader.ReadString());
      auto state = std::make_shared<ml::TreeState>(lop);
      HYPPO_ASSIGN_OR_RETURN(state->is_classifier, reader.ReadBool());
      HYPPO_ASSIGN_OR_RETURN(state->tree, ReadFlatTree(reader));
      return ml::OpStatePtr(std::move(state));
    }
    case PayloadTag::kForestState: {
      HYPPO_ASSIGN_OR_RETURN(std::string lop, reader.ReadString());
      auto state = std::make_shared<ml::ForestState>(lop);
      HYPPO_ASSIGN_OR_RETURN(state->is_classifier, reader.ReadBool());
      HYPPO_ASSIGN_OR_RETURN(state->base_prediction, reader.ReadDouble());
      HYPPO_ASSIGN_OR_RETURN(state->tree_weights,
                             reader.ReadDoubleVector());
      HYPPO_ASSIGN_OR_RETURN(uint64_t trees, reader.ReadU64());
      for (uint64_t i = 0; i < trees; ++i) {
        HYPPO_ASSIGN_OR_RETURN(ml::FlatTree tree, ReadFlatTree(reader));
        state->trees.push_back(std::move(tree));
      }
      if (state->trees.size() != state->tree_weights.size()) {
        return Status::ParseError("forest tree/weight count mismatch");
      }
      return ml::OpStatePtr(std::move(state));
    }
    case PayloadTag::kEnsembleState: {
      HYPPO_ASSIGN_OR_RETURN(std::string lop, reader.ReadString());
      auto state = std::make_shared<ml::EnsembleState>(lop);
      HYPPO_ASSIGN_OR_RETURN(state->meta_intercept, reader.ReadDouble());
      HYPPO_ASSIGN_OR_RETURN(state->meta_weights,
                             reader.ReadDoubleVector());
      HYPPO_ASSIGN_OR_RETURN(uint64_t impls, reader.ReadU64());
      for (uint64_t i = 0; i < impls; ++i) {
        HYPPO_ASSIGN_OR_RETURN(std::string impl, reader.ReadString());
        state->base_impls.push_back(std::move(impl));
      }
      HYPPO_ASSIGN_OR_RETURN(uint64_t lops, reader.ReadU64());
      for (uint64_t i = 0; i < lops; ++i) {
        HYPPO_ASSIGN_OR_RETURN(std::string base_lop, reader.ReadString());
        state->base_logical_ops.push_back(std::move(base_lop));
      }
      HYPPO_ASSIGN_OR_RETURN(uint64_t bases, reader.ReadU64());
      for (uint64_t i = 0; i < bases; ++i) {
        HYPPO_ASSIGN_OR_RETURN(ml::OpStatePtr base, ReadState(reader));
        state->base_states.push_back(std::move(base));
      }
      return ml::OpStatePtr(std::move(state));
    }
    default:
      return Status::ParseError("unexpected op-state tag");
  }
}

Result<ml::OpStatePtr> ReadState(BinaryReader& reader) {
  HYPPO_ASSIGN_OR_RETURN(uint32_t raw_tag, reader.ReadU32());
  return ReadStateBody(reader, static_cast<PayloadTag>(raw_tag));
}

}  // namespace

void BinaryWriter::WriteU32(uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void BinaryWriter::WriteU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void BinaryWriter::WriteDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  buffer_.append(value);
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& values) {
  WriteU64(values.size());
  for (double value : values) {
    WriteDouble(value);
  }
}

void BinaryWriter::WriteI32Vector(const std::vector<int32_t>& values) {
  WriteU64(values.size());
  for (int32_t value : values) {
    WriteU32(static_cast<uint32_t>(value));
  }
}

Status BinaryReader::Need(size_t bytes) const {
  // Subtraction form: `position_ + bytes` can wrap for attacker-sized
  // length prefixes, which would let a huge read past the bounds check.
  if (bytes > buffer_.size() - position_) {
    return Status::ParseError("binary payload truncated");
  }
  return Status::OK();
}

Result<uint32_t> BinaryReader::ReadU32() {
  HYPPO_RETURN_NOT_OK(Need(4));
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(
                 static_cast<unsigned char>(buffer_[position_ + i]))
             << (8 * i);
  }
  position_ += 4;
  return value;
}

Result<uint64_t> BinaryReader::ReadU64() {
  HYPPO_RETURN_NOT_OK(Need(8));
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<unsigned char>(buffer_[position_ + i]))
             << (8 * i);
  }
  position_ += 8;
  return value;
}

Result<int64_t> BinaryReader::ReadI64() {
  HYPPO_ASSIGN_OR_RETURN(uint64_t value, ReadU64());
  return static_cast<int64_t>(value);
}

Result<double> BinaryReader::ReadDouble() {
  HYPPO_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<bool> BinaryReader::ReadBool() {
  HYPPO_RETURN_NOT_OK(Need(1));
  const bool value = buffer_[position_] != 0;
  ++position_;
  return value;
}

Result<std::string> BinaryReader::ReadString() {
  HYPPO_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  HYPPO_RETURN_NOT_OK(Need(size));
  std::string value = buffer_.substr(position_, size);
  position_ += size;
  return value;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector() {
  HYPPO_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  // Divide instead of multiplying: `size * 8` wraps for huge corrupted
  // prefixes, passing the bounds check and then aborting in reserve().
  if (size > (buffer_.size() - position_) / 8) {
    return Status::ParseError("binary payload truncated");
  }
  std::vector<double> values;
  values.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    HYPPO_ASSIGN_OR_RETURN(double value, ReadDouble());
    values.push_back(value);
  }
  return values;
}

Result<std::vector<int32_t>> BinaryReader::ReadI32Vector() {
  HYPPO_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  if (size > (buffer_.size() - position_) / 4) {
    return Status::ParseError("binary payload truncated");
  }
  std::vector<int32_t> values;
  values.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    HYPPO_ASSIGN_OR_RETURN(uint32_t value, ReadU32());
    values.push_back(static_cast<int32_t>(value));
  }
  return values;
}

Result<std::string> SerializePayload(const ArtifactPayload& payload) {
  BinaryWriter writer;
  writer.WriteU32(kMagic);
  if (std::get_if<std::monostate>(&payload) != nullptr) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kMonostate));
  } else if (const auto* dataset = std::get_if<ml::DatasetPtr>(&payload)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kDataset));
    const ml::Dataset& data = **dataset;
    writer.WriteI64(data.rows());
    writer.WriteI64(data.cols());
    writer.WriteU64(data.column_names().size());
    for (const std::string& name : data.column_names()) {
      writer.WriteString(name);
    }
    for (int64_t c = 0; c < data.cols(); ++c) {
      for (int64_t r = 0; r < data.rows(); ++r) {
        writer.WriteDouble(data.at(r, c));
      }
    }
    writer.WriteBool(data.has_target());
    if (data.has_target()) {
      writer.WriteDoubleVector(data.target());
    }
  } else if (const auto* state = std::get_if<ml::OpStatePtr>(&payload)) {
    HYPPO_RETURN_NOT_OK(WriteState(writer, **state));
  } else if (const auto* preds = std::get_if<ml::PredictionsPtr>(&payload)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kPredictions));
    writer.WriteDoubleVector(**preds);
  } else if (const double* value = std::get_if<double>(&payload)) {
    writer.WriteU32(static_cast<uint32_t>(PayloadTag::kValue));
    writer.WriteDouble(*value);
  } else {
    return Status::Internal("unknown payload alternative");
  }
  return writer.Take();
}

Result<ArtifactPayload> DeserializePayload(const std::string& bytes) {
  BinaryReader reader(bytes);
  HYPPO_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return Status::ParseError("bad payload magic");
  }
  HYPPO_ASSIGN_OR_RETURN(uint32_t raw_tag, reader.ReadU32());
  const PayloadTag tag = static_cast<PayloadTag>(raw_tag);
  switch (tag) {
    case PayloadTag::kMonostate:
      return ArtifactPayload(std::monostate{});
    case PayloadTag::kDataset: {
      HYPPO_ASSIGN_OR_RETURN(int64_t rows, reader.ReadI64());
      HYPPO_ASSIGN_OR_RETURN(int64_t cols, reader.ReadI64());
      // Bound each dimension before multiplying: `rows * cols` on
      // corrupt inputs is signed-overflow UB. The buffer must still hold
      // the matrix itself, so a shape larger than the remaining bytes is
      // corrupt — reject it *before* allocating the dataset.
      constexpr int64_t kMaxCells = int64_t{1} << 34;
      if (rows < 0 || cols < 0 || rows > kMaxCells || cols > kMaxCells ||
          (rows > 0 && cols > kMaxCells / rows)) {
        return Status::ParseError("implausible dataset shape");
      }
      if (rows * cols > static_cast<int64_t>(reader.remaining() / 8)) {
        return Status::ParseError("binary payload truncated");
      }
      HYPPO_ASSIGN_OR_RETURN(uint64_t names, reader.ReadU64());
      std::vector<std::string> column_names;
      for (uint64_t i = 0; i < names; ++i) {
        HYPPO_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
        column_names.push_back(std::move(name));
      }
      auto data = std::make_shared<ml::Dataset>(rows, cols);
      if (static_cast<int64_t>(column_names.size()) == cols) {
        data->set_column_names(std::move(column_names));
      }
      for (int64_t c = 0; c < cols; ++c) {
        for (int64_t r = 0; r < rows; ++r) {
          HYPPO_ASSIGN_OR_RETURN(data->at(r, c), reader.ReadDouble());
        }
      }
      HYPPO_ASSIGN_OR_RETURN(bool has_target, reader.ReadBool());
      if (has_target) {
        HYPPO_ASSIGN_OR_RETURN(std::vector<double> target,
                               reader.ReadDoubleVector());
        if (static_cast<int64_t>(target.size()) != rows) {
          return Status::ParseError("target length mismatch");
        }
        data->set_target(std::move(target));
      }
      return ArtifactPayload(ml::DatasetPtr(std::move(data)));
    }
    case PayloadTag::kVectorState:
    case PayloadTag::kTreeState:
    case PayloadTag::kForestState:
    case PayloadTag::kEnsembleState: {
      HYPPO_ASSIGN_OR_RETURN(ml::OpStatePtr state,
                             ReadStateBody(reader, tag));
      return ArtifactPayload(std::move(state));
    }
    case PayloadTag::kPredictions: {
      HYPPO_ASSIGN_OR_RETURN(std::vector<double> preds,
                             reader.ReadDoubleVector());
      return ArtifactPayload(std::make_shared<const std::vector<double>>(
          std::move(preds)));
    }
    case PayloadTag::kValue: {
      HYPPO_ASSIGN_OR_RETURN(double value, reader.ReadDouble());
      return ArtifactPayload(value);
    }
  }
  return Status::ParseError("unknown payload tag");
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("error while reading '" + path + "'");
  }
  return bytes;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::IoError("error while writing '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::IoError("cannot rename '" + tmp + "' into place: " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace hyppo::storage
