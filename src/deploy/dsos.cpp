#include "deploy/dsos.hpp"

#include "util/metrics.hpp"

#include <stdexcept>
#include <utility>

namespace prodigy::deploy {

namespace {
constexpr std::uint64_t kStoreMagic = 0x50524f4453544f52ULL;  // "PRODSTOR"

void write_node(util::BinaryWriter& writer, const telemetry::NodeSeries& node) {
  writer.write_i64(node.job_id);
  writer.write_i64(node.component_id);
  writer.write_string(node.app);
  writer.write_string(node.anomaly);
  writer.write_i64(node.label);
  writer.write_u64(node.values.rows());
  writer.write_u64(node.values.cols());
  writer.write_f64_vector(node.values.storage());
}

telemetry::NodeSeries read_node(util::BinaryReader& reader) {
  telemetry::NodeSeries node;
  node.job_id = reader.read_i64();
  node.component_id = reader.read_i64();
  node.app = reader.read_string();
  node.anomaly = reader.read_string();
  node.label = static_cast<int>(reader.read_i64());
  const auto rows = reader.read_u64();
  const auto cols = reader.read_u64();
  // As in Dense::load: read the values first, check size == rows * cols
  // without overflow, then adopt them.
  std::vector<double> values = reader.read_f64_vector();
  const bool shape_ok = cols == 0 ? values.empty()
                                  : values.size() % cols == 0 &&
                                        values.size() / cols == rows;
  if (!shape_ok) throw std::runtime_error("DsosStore: corrupt node record");
  node.values.storage() = std::move(values);
  node.values.resize_for_overwrite(rows, cols);
  return node;
}

// Counter handles resolved once: ingest and append run per flush under the
// exclusive lock, where a registry lookup (global mutex + map find) would
// cost more than the append itself.
struct DsosMetrics {
  util::Counter* ingests;
  util::Counter* appends;

  static DsosMetrics& instance() {
    static DsosMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::global();
      DsosMetrics m;
      m.ingests = &registry.counter("prodigy_dsos_ingests_total");
      m.appends = &registry.counter("prodigy_dsos_appends_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

void DsosStore::ingest(const telemetry::JobTelemetry& job) {
  std::unique_lock lock(mutex_);
  job_apps_[job.job_id] = job.app;
  job_generation_[job.job_id] = ++generation_;
  for (const auto& node : job.nodes) {
    nodes_[{node.job_id, node.component_id}] = node;
  }
  DsosMetrics::instance().ingests->increment();
}

void DsosStore::ingest_node(const telemetry::NodeSeries& node) {
  std::unique_lock lock(mutex_);
  // Assign (not emplace): a re-ingested job must pick up the new app name,
  // exactly like whole-job ingest does.
  job_apps_[node.job_id] = node.app;
  job_generation_[node.job_id] = ++generation_;
  nodes_[{node.job_id, node.component_id}] = node;
  DsosMetrics::instance().ingests->increment();
}

void DsosStore::append_node(const telemetry::NodeSeries& delta) {
  std::unique_lock lock(mutex_);
  const auto [it, inserted] =
      nodes_.try_emplace({delta.job_id, delta.component_id}, delta);
  if (!inserted) {
    tensor::Matrix& values = it->second.values;
    if (values.cols() != delta.values.cols()) {
      throw std::invalid_argument(
          "DsosStore::append_node: column mismatch for node " +
          std::to_string(delta.job_id) + "/" + std::to_string(delta.component_id) +
          " (" + std::to_string(values.cols()) + " vs " +
          std::to_string(delta.values.cols()) + ")");
    }
    // Grow the series in place: O(rows appended), so the exclusive lock is
    // held for the new rows only.  Identity/ground truth of the first insert
    // is authoritative (a live stream has no labels to contribute).
    values.append_rows(delta.values);
  }
  job_apps_[delta.job_id] = delta.app;
  job_generation_[delta.job_id] = ++generation_;
  DsosMetrics::instance().appends->increment();
}

std::vector<std::int64_t> DsosStore::job_ids() const {
  std::shared_lock lock(mutex_);
  std::vector<std::int64_t> ids;
  ids.reserve(job_apps_.size());
  for (const auto& [id, app] : job_apps_) ids.push_back(id);
  return ids;
}

bool DsosStore::has_job(std::int64_t job_id) const {
  std::shared_lock lock(mutex_);
  return job_apps_.contains(job_id);
}

telemetry::JobTelemetry DsosStore::query_job(std::int64_t job_id,
                                             std::uint64_t* generation) const {
  util::StageTimer stage("deploy.dsos.query_job");
  std::shared_lock lock(mutex_);
  const auto app_it = job_apps_.find(job_id);
  if (app_it == job_apps_.end()) {
    throw std::out_of_range("DsosStore: unknown job " + std::to_string(job_id));
  }
  telemetry::JobTelemetry job;
  job.job_id = job_id;
  job.app = app_it->second;
  for (auto it = nodes_.lower_bound({job_id, INT64_MIN});
       it != nodes_.end() && it->first.first == job_id; ++it) {
    job.nodes.push_back(it->second);
  }
  if (generation != nullptr) {
    const auto gen_it = job_generation_.find(job_id);
    *generation = gen_it == job_generation_.end() ? 0 : gen_it->second;
  }
  return job;
}

std::vector<std::int64_t> DsosStore::components_of(std::int64_t job_id) const {
  std::shared_lock lock(mutex_);
  std::vector<std::int64_t> components;
  for (auto it = nodes_.lower_bound({job_id, INT64_MIN});
       it != nodes_.end() && it->first.first == job_id; ++it) {
    components.push_back(it->first.second);
  }
  return components;
}

telemetry::NodeSeries DsosStore::query_node(std::int64_t job_id,
                                            std::int64_t component_id) const {
  std::shared_lock lock(mutex_);
  const auto it = nodes_.find({job_id, component_id});
  if (it == nodes_.end()) {
    throw std::out_of_range("DsosStore: unknown node " + std::to_string(job_id) +
                            "/" + std::to_string(component_id));
  }
  return it->second;
}

std::uint64_t DsosStore::job_generation(std::int64_t job_id) const {
  std::shared_lock lock(mutex_);
  const auto it = job_generation_.find(job_id);
  return it == job_generation_.end() ? 0 : it->second;
}

std::uint64_t DsosStore::generation() const {
  std::shared_lock lock(mutex_);
  return generation_;
}

std::size_t DsosStore::job_count() const {
  std::shared_lock lock(mutex_);
  return job_apps_.size();
}

std::size_t DsosStore::datapoint_count() const {
  std::shared_lock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, node] : nodes_) total += node.values.size();
  return total;
}

void DsosStore::save(const std::string& path) const {
  std::shared_lock lock(mutex_);
  util::BinaryWriter writer(path);
  writer.write_magic(kStoreMagic, 1);
  writer.write_u64(job_apps_.size());
  for (const auto& [id, app] : job_apps_) {
    writer.write_i64(id);
    writer.write_string(app);
  }
  writer.write_u64(nodes_.size());
  for (const auto& [key, node] : nodes_) write_node(writer, node);
}

DsosStore DsosStore::load(const std::string& path) {
  util::BinaryReader reader(path);
  reader.expect_magic(kStoreMagic, 1);
  DsosStore store;
  const auto job_count = reader.read_u64();
  for (std::uint64_t i = 0; i < job_count; ++i) {
    const auto id = reader.read_i64();
    store.job_apps_[id] = reader.read_string();
    store.job_generation_[id] = ++store.generation_;
  }
  const auto node_count = reader.read_u64();
  for (std::uint64_t i = 0; i < node_count; ++i) {
    auto node = read_node(reader);
    store.nodes_[{node.job_id, node.component_id}] = std::move(node);
  }
  return store;
}

}  // namespace prodigy::deploy
