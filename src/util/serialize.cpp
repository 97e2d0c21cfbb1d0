#include "util/serialize.hpp"

namespace prodigy::util {

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary), path_(path) {
  if (!out_) throw std::runtime_error("BinaryWriter: cannot open " + path);
}

void BinaryWriter::write_raw(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out_) throw std::runtime_error("BinaryWriter: write failed for " + path_);
}

void BinaryWriter::write_u64(std::uint64_t value) { write_raw(&value, sizeof value); }
void BinaryWriter::write_i64(std::int64_t value) { write_raw(&value, sizeof value); }
void BinaryWriter::write_f64(double value) { write_raw(&value, sizeof value); }

void BinaryWriter::write_string(const std::string& value) {
  write_u64(value.size());
  if (!value.empty()) write_raw(value.data(), value.size());
}

void BinaryWriter::write_f64_vector(const std::vector<double>& values) {
  write_u64(values.size());
  if (!values.empty()) write_raw(values.data(), values.size() * sizeof(double));
}

void BinaryWriter::write_string_vector(const std::vector<std::string>& values) {
  write_u64(values.size());
  for (const auto& value : values) write_string(value);
}

void BinaryWriter::write_magic(std::uint64_t magic, std::uint64_t version) {
  write_u64(magic);
  write_u64(version);
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (!in_ || end < 0) {
    throw std::runtime_error("BinaryReader: cannot size " + path);
  }
  size_ = static_cast<std::uint64_t>(end);
}

void BinaryReader::read_raw(void* data, std::size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (!in_ || static_cast<std::size_t>(in_.gcount()) != size) {
    throw std::runtime_error("BinaryReader: truncated read from " + path_);
  }
  consumed_ += size;
}

void BinaryReader::check_length(std::uint64_t count,
                                std::uint64_t min_bytes) const {
  const std::uint64_t left = consumed_ < size_ ? size_ - consumed_ : 0;
  if (count > left / min_bytes) {
    throw std::runtime_error(
        "BinaryReader: length " + std::to_string(count) + " (" +
        std::to_string(min_bytes) + " bytes each) exceeds the " +
        std::to_string(left) + " bytes left in " + path_);
  }
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t value = 0;
  read_raw(&value, sizeof value);
  return value;
}

std::int64_t BinaryReader::read_i64() {
  std::int64_t value = 0;
  read_raw(&value, sizeof value);
  return value;
}

double BinaryReader::read_f64() {
  double value = 0;
  read_raw(&value, sizeof value);
  return value;
}

std::string BinaryReader::read_string() {
  const auto size = read_u64();
  check_length(size, 1);
  std::string value(size, '\0');
  if (size > 0) read_raw(value.data(), size);
  return value;
}

std::vector<double> BinaryReader::read_f64_vector() {
  const auto size = read_u64();
  check_length(size, sizeof(double));
  std::vector<double> values(size);
  if (size > 0) read_raw(values.data(), size * sizeof(double));
  return values;
}

std::vector<std::string> BinaryReader::read_string_vector() {
  const auto size = read_u64();
  check_length(size, sizeof(std::uint64_t));  // each string has its prefix
  std::vector<std::string> values;
  values.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) values.push_back(read_string());
  return values;
}

bool BinaryReader::at_end() { return in_.peek() == std::ifstream::traits_type::eof(); }

void BinaryReader::expect_magic(std::uint64_t magic, std::uint64_t version) {
  const auto got_magic = read_u64();
  const auto got_version = read_u64();
  if (got_magic != magic || got_version != version) {
    throw std::runtime_error("BinaryReader: bad magic/version in " + path_);
  }
}

}  // namespace prodigy::util
