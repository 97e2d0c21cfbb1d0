#include "core/model_trainer.hpp"
#include "deploy/dsos.hpp"
#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "stream/sample_batch.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace prodigy::util {
namespace {

class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CsvTest, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvTest, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, RoundTripSimpleTable) {
  TempFile file("prodigy_csv_test1.csv");
  CsvTable table;
  table.header = {"model", "f1", "dataset"};
  table.rows = {{"Prodigy", "0.95", "Eclipse"}, {"USAD", "0.68", "Eclipse"}};
  write_csv(file.path(), table);
  const CsvTable loaded = read_csv(file.path());
  EXPECT_EQ(loaded.header, table.header);
  EXPECT_EQ(loaded.rows, table.rows);
}

TEST(CsvTest, RoundTripQuotedFields) {
  TempFile file("prodigy_csv_test2.csv");
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"a,b", "quote \"x\" here"}};
  write_csv(file.path(), table);
  const CsvTable loaded = read_csv(file.path());
  EXPECT_EQ(loaded.rows, table.rows);
}

TEST(CsvTest, ColumnIndexFindsAndThrows) {
  CsvTable table;
  table.header = {"a", "b", "c"};
  EXPECT_EQ(table.column_index("b"), 1u);
  EXPECT_THROW(table.column_index("missing"), std::out_of_range);
}

TEST(CsvTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(SerializeTest, RoundTripScalars) {
  TempFile file("prodigy_bin_test1.bin");
  {
    BinaryWriter writer(file.path());
    writer.write_u64(42);
    writer.write_i64(-7);
    writer.write_f64(3.25);
    writer.write_string("prodigy");
  }
  BinaryReader reader(file.path());
  EXPECT_EQ(reader.read_u64(), 42u);
  EXPECT_EQ(reader.read_i64(), -7);
  EXPECT_DOUBLE_EQ(reader.read_f64(), 3.25);
  EXPECT_EQ(reader.read_string(), "prodigy");
}

TEST(SerializeTest, RoundTripVectors) {
  TempFile file("prodigy_bin_test2.bin");
  const std::vector<double> values{1.5, -2.5, 0.0, 1e300};
  const std::vector<std::string> names{"MemFree::meminfo", "pgfault::vmstat", ""};
  {
    BinaryWriter writer(file.path());
    writer.write_f64_vector(values);
    writer.write_string_vector(names);
  }
  BinaryReader reader(file.path());
  EXPECT_EQ(reader.read_f64_vector(), values);
  EXPECT_EQ(reader.read_string_vector(), names);
}

TEST(SerializeTest, MagicMismatchThrows) {
  TempFile file("prodigy_bin_test3.bin");
  {
    BinaryWriter writer(file.path());
    writer.write_magic(0xAA, 1);
  }
  BinaryReader reader(file.path());
  EXPECT_THROW(reader.expect_magic(0xBB, 1), std::runtime_error);
}

TEST(SerializeTest, VersionMismatchThrows) {
  TempFile file("prodigy_bin_test4.bin");
  {
    BinaryWriter writer(file.path());
    writer.write_magic(0xAA, 1);
  }
  BinaryReader reader(file.path());
  EXPECT_THROW(reader.expect_magic(0xAA, 2), std::runtime_error);
}

TEST(SerializeTest, TruncatedReadThrows) {
  TempFile file("prodigy_bin_test5.bin");
  {
    BinaryWriter writer(file.path());
    writer.write_u64(1);
  }
  BinaryReader reader(file.path());
  reader.read_u64();
  EXPECT_THROW(reader.read_u64(), std::runtime_error);
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/dir/f.bin"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Length prefixes.  Each corrupt prefix claims at least 2^48 bytes, past a
// 47-bit user address space: a decoder that allocated before checking would
// fail with std::bad_alloc (or std::length_error) without touching memory,
// whatever the overcommit policy, instead of reporting a corrupt file.

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 50;

/// Overwrites the u64 at byte `offset` of `path` after checking that the
/// field holds `expected` (so a format change fails loudly, not silently).
void patch_u64(const std::string& path, std::streamoff offset,
               std::uint64_t expected, std::uint64_t value) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  std::uint64_t current = 0;
  file.seekg(offset);
  file.read(reinterpret_cast<char*>(&current), sizeof current);
  ASSERT_EQ(current, expected) << "field moved in " << path;
  file.seekp(offset);
  file.write(reinterpret_cast<const char*>(&value), sizeof value);
  ASSERT_TRUE(file.good());
}

/// A prefix followed by 8 payload bytes: far short of any claimed length.
void write_prefix(const std::string& path, std::uint64_t prefix) {
  BinaryWriter writer(path);
  writer.write_u64(prefix);
  writer.write_u64(0);
}

TEST(LengthPrefixTest, StringClaimBeyondFileThrows) {
  TempFile file("prodigy_prefix_string.bin");
  write_prefix(file.path(), kHugeCount);
  BinaryReader reader(file.path());
  try {
    (void)reader.read_string();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The message names the claimed length, the bytes left and the file.
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(kHugeCount)), std::string::npos) << what;
    EXPECT_NE(what.find("8 bytes left"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
  }
}

TEST(LengthPrefixTest, F64VectorClaimBeyondFileThrows) {
  TempFile file("prodigy_prefix_f64.bin");
  write_prefix(file.path(), kHugeCount);
  BinaryReader reader(file.path());
  EXPECT_THROW((void)reader.read_f64_vector(), std::runtime_error);
}

TEST(LengthPrefixTest, StringVectorClaimBeyondFileThrows) {
  TempFile file("prodigy_prefix_strings.bin");
  write_prefix(file.path(), kHugeCount);
  BinaryReader reader(file.path());
  EXPECT_THROW((void)reader.read_string_vector(), std::runtime_error);
}

TEST(LengthPrefixTest, DenseShapeBeyondFileThrows) {
  // in = out = 2^23 claims a 2^49-byte weight matrix; the stream then
  // carries a 4-value weight vector.
  TempFile file("prodigy_prefix_dense.bin");
  {
    BinaryWriter writer(file.path());
    writer.write_u64(std::uint64_t{1} << 23);
    writer.write_u64(std::uint64_t{1} << 23);
    writer.write_string("relu");
    writer.write_f64_vector({0.1, 0.2, 0.3, 0.4});
    writer.write_f64_vector({0.0, 0.0});
  }
  BinaryReader reader(file.path());
  EXPECT_THROW((void)nn::Dense::load(reader), std::runtime_error);
}

TEST(LengthPrefixTest, SampleFrameRowCountBeyondFileThrows) {
  TempFile file("prodigy_prefix_frame.bin");
  {
    stream::SampleBatch batch;
    batch.rows.push_back({1, 2, 3, "app", {1.0}});
    BinaryWriter writer(file.path());
    batch.write_frame(writer);
  }
  patch_u64(file.path(), 24, 1, kHugeCount);  // magic, version, sequence
  BinaryReader reader(file.path());
  EXPECT_THROW((void)stream::SampleBatch::read_frame(reader), std::runtime_error);
}

TEST(LengthPrefixTest, MlpLayerCountBeyondFileThrows) {
  TempFile file("prodigy_prefix_mlp.bin");
  {
    Rng rng(1);
    const nn::Mlp mlp(3, {{2, nn::Activation::ReLU}}, rng);
    BinaryWriter writer(file.path());
    mlp.save(writer);
  }
  patch_u64(file.path(), 8, 1, kHugeCount);  // after input_dim
  BinaryReader reader(file.path());
  EXPECT_THROW((void)nn::Mlp::load(reader), std::runtime_error);
}

TEST(LengthPrefixTest, MetadataColumnCountBeyondFileThrows) {
  TempFile file("prodigy_prefix_metadata.bin");
  {
    core::DeploymentMetadata metadata;
    metadata.selected_columns = {4, 7};
    BinaryWriter writer(file.path());
    metadata.save(writer);
  }
  // magic, version, empty system string, empty feature-name vector.
  patch_u64(file.path(), 32, 2, kHugeCount);
  BinaryReader reader(file.path());
  EXPECT_THROW((void)core::DeploymentMetadata::load(reader), std::runtime_error);
}

TEST(LengthPrefixTest, DsosNodeShapeBeyondFileThrows) {
  TempFile file("prodigy_prefix_dsos.bin");
  {
    telemetry::JobTelemetry job;
    job.job_id = 1;
    telemetry::NodeSeries node;
    node.job_id = 1;
    node.component_id = 2;
    node.anomaly = "";
    node.values = tensor::Matrix(2, 3, 1.0);
    job.nodes.push_back(node);
    deploy::DsosStore store;
    store.ingest(job);
    store.save(file.path());
  }
  // magic, version, job count, job id, empty app, node count, job id,
  // component id, empty app, empty anomaly, label: rows at 88, cols at 96.
  patch_u64(file.path(), 88, 2, std::uint64_t{1} << 23);
  patch_u64(file.path(), 96, 3, std::uint64_t{1} << 23);
  EXPECT_THROW((void)deploy::DsosStore::load(file.path()), std::runtime_error);
}

}  // namespace
}  // namespace prodigy::util
