// Binary serialization helpers.  Model weights, scalers, and deployment
// metadata are persisted through these streams (the paper's ModelTrainer
// saves HDF files; we use a simple tagged little-endian binary container).
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace prodigy::util {

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_u64(std::uint64_t value);
  void write_i64(std::int64_t value);
  void write_f64(double value);
  void write_string(const std::string& value);
  void write_f64_vector(const std::vector<double>& values);
  void write_string_vector(const std::vector<std::string>& values);

  /// Magic/version header so loads can reject foreign files.
  void write_magic(std::uint64_t magic, std::uint64_t version);

 private:
  void write_raw(const void* data, std::size_t size);
  std::ofstream out_;
  std::string path_;
};

/// Reads a regular file; its size is taken at open.  Every length-prefixed
/// read checks that its payload fits in the bytes left before allocating,
/// so a corrupt or hostile prefix is a std::runtime_error, never an
/// allocation sized by the prefix.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  std::string read_string();
  std::vector<double> read_f64_vector();
  std::vector<std::string> read_string_vector();

  /// Throws std::runtime_error if magic/version do not match.
  void expect_magic(std::uint64_t magic, std::uint64_t version);

  /// Throws std::runtime_error naming the length, the bytes left and the
  /// path unless `count` elements of at least `min_bytes` encoded bytes
  /// each (min_bytes >= 1) fit in the unread rest of the file.  Decoders
  /// call it before reserving room for a count-prefixed sequence.
  void check_length(std::uint64_t count, std::uint64_t min_bytes) const;

  /// True when every byte has been consumed — used to iterate frame streams
  /// (e.g. a capture file of consecutive SampleBatch frames).
  bool at_end();

 private:
  void read_raw(void* data, std::size_t size);
  std::ifstream in_;
  std::string path_;
  std::uint64_t size_ = 0;      // file size at open
  std::uint64_t consumed_ = 0;  // bytes read so far
};

}  // namespace prodigy::util
