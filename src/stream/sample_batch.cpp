#include "stream/sample_batch.hpp"

namespace prodigy::stream {

namespace {
constexpr std::uint64_t kFrameMagic = 0x50524f44534d5042ULL;  // "PRODSMPB"
}

void SampleBatch::write_frame(util::BinaryWriter& writer) const {
  writer.write_magic(kFrameMagic, 1);
  writer.write_u64(sequence);
  writer.write_u64(rows.size());
  for (const auto& row : rows) {
    writer.write_i64(row.job_id);
    writer.write_i64(row.component_id);
    writer.write_i64(row.timestamp);
    writer.write_string(row.app);
    writer.write_f64_vector(row.values);
  }
}

SampleBatch SampleBatch::read_frame(util::BinaryReader& reader) {
  reader.expect_magic(kFrameMagic, 1);
  SampleBatch batch;
  batch.sequence = reader.read_u64();
  const auto count = reader.read_u64();
  // A row encodes at least 40 bytes: three i64s and two length prefixes.
  reader.check_length(count, 40);
  batch.rows.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SampleRow row;
    row.job_id = reader.read_i64();
    row.component_id = reader.read_i64();
    row.timestamp = reader.read_i64();
    row.app = reader.read_string();
    row.values = reader.read_f64_vector();
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

}  // namespace prodigy::stream
