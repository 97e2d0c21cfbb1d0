// The analytics pipeline of Figures 2 and 4: a user supplies a job ID and
// selects the anomaly-detection dashboard; the backend calls DataGenerator ->
// DataPipeline -> AnomalyDetector, returns one binary verdict per compute
// node, and attaches CoMTE counterfactual explanations to anomalous
// predictions.  Offline training (Fig. 3) runs through train_from_store.
#pragma once

#include "comte/comte.hpp"
#include "core/model_trainer.hpp"
#include "deploy/dsos.hpp"
#include "pipeline/data_pipeline.hpp"
#include "util/lru_cache.hpp"
#include "util/thread_pool.hpp"

#include <memory>
#include <optional>
#include <utility>

namespace prodigy::deploy {

struct NodeVerdict {
  std::int64_t component_id = 0;
  bool anomalous = false;
  double score = 0.0;     // reconstruction error
  double threshold = 0.0;
  std::optional<comte::Explanation> explanation;
};

/// One entry of the per-request latency breakdown: how long one contiguous
/// stage of analyze_job took.  The stages cover the whole request, so their
/// seconds sum to ~JobAnalysis::seconds.
struct StageLatency {
  std::string stage;
  double seconds = 0.0;
};

struct JobAnalysis {
  std::int64_t job_id = 0;
  std::string app;
  std::vector<NodeVerdict> nodes;
  double seconds = 0.0;  // end-to-end request latency
  std::vector<StageLatency> stages;  // query / features / score / verdicts
  /// DSOS generation stamp of the telemetry this analysis was computed from
  /// (read under the same lock as the data, so the pair is consistent even
  /// with concurrent ingest).
  std::uint64_t store_generation = 0;
  bool from_cache = false;  // true when served from the result cache
};

struct TrainFromStoreOptions {
  pipeline::PreprocessOptions preprocess;
  core::ProdigyConfig model;
  std::size_t top_k_features = 2000;  // paper's best (§5.4.3)
  std::string system_name = "Eclipse";
  /// Counterfactual search budget; strong anomalies (e.g. a full memleak)
  /// genuinely require several substituted metrics to flip.
  comte::ComteConfig explanations{/*max_metrics=*/12, /*distractor_candidates=*/5,
                                  /*restarts=*/3};
  /// Result-cache capacity for the returned service (0 disables caching).
  std::size_t cache_capacity = 128;
};

class AnalyticsService {
 public:
  /// `store` must outlive the service.  When `explain` is true, anomalous
  /// node verdicts carry CoMTE explanations (built from the bundle's
  /// training-space data captured at train time).  `cache_capacity` bounds
  /// the LRU result cache (0 disables it).
  AnalyticsService(const DsosStore& store, core::ModelBundle bundle,
                   pipeline::PreprocessOptions preprocess, bool explain,
                   comte::ComteConfig explanations = {},
                   std::size_t cache_capacity = 128);

  /// The Grafana request: job ID in, per-node verdicts out.
  ///
  /// Thread-safe: per-node work (preprocess, feature extraction, verdict
  /// assembly, CoMTE search) fans out across the configured thread pool, and
  /// many client threads may call analyze_job concurrently.  Results are
  /// bit-identical for any pool size.  Repeated requests for a job whose
  /// DSOS generation has not changed are served from a bounded LRU cache
  /// keyed by (job id, store generation); any re-ingest bumps the generation
  /// and therefore invalidates the cached entry.
  JobAnalysis analyze_job(std::int64_t job_id) const;

  /// Overrides the worker pool used for per-node fan-out (nullptr restores
  /// the process-global pool).  Intended for tests and benchmarks that pin
  /// the degree of parallelism.
  void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }

  /// Resizes the result cache; shrinking evicts least-recently-used entries
  /// and 0 disables caching entirely.
  void set_cache_capacity(std::size_t capacity) { cache_->set_capacity(capacity); }
  std::size_t cached_analyses() const { return cache_->size(); }

  /// Node-level analysis (paper: "job- and node-level analysis"): the
  /// verdict for one compute node of a job, bit-identical to that node's
  /// entry in analyze_job (explanation included).  Only this node is read
  /// from the store and scored; the result cache is not consulted.  Throws
  /// std::out_of_range if the component is not part of the job.
  NodeVerdict analyze_node(std::int64_t job_id, std::int64_t component_id) const;

  /// The served bundle, fixed for the service's lifetime.
  const core::ModelBundle& bundle() const { return bundle_; }

  /// Offline training flow (Fig. 3): builds the feature dataset from the
  /// given stored jobs, selects efficient features (chi-square when both
  /// classes are present, variance ranking otherwise), trains the VAE on the
  /// healthy rows, and returns the service wired to the fresh bundle.
  static AnalyticsService train_from_store(const DsosStore& store,
                                           const std::vector<std::int64_t>& train_jobs,
                                           const TrainFromStoreOptions& options,
                                           bool explain = true);

 private:
  // (job id, DSOS generation) -> finished analysis.  Immutable shared_ptr
  // payloads keep hits copy-cheap and safe to hand out while other threads
  // insert or evict.
  using CacheKey = std::pair<std::int64_t, std::uint64_t>;
  using AnalysisCache =
      util::LruCache<CacheKey, std::shared_ptr<const JobAnalysis>>;

  // The one analysis body behind analyze_job and analyze_node: features,
  // score and verdicts (stages "features", "score", "verdicts") for every
  // node of the loaded `job`, in node order.  Every stage is per-row, so a
  // node's verdict does not depend on which other nodes share the call.
  JobAnalysis analyze_telemetry(telemetry::JobTelemetry job) const;
  void build_explainer_context(const features::FeatureDataset& train_data);

  const DsosStore& store_;
  core::ModelBundle bundle_;
  bool explain_ = false;
  pipeline::PreprocessOptions preprocess_;
  util::ThreadPool* pool_ = nullptr;  // nullptr -> util::ThreadPool::global()
  // unique_ptr (not a direct member) so the service stays movable: the cache
  // owns a mutex, and train_from_store returns the service by value.
  mutable std::unique_ptr<AnalysisCache> cache_;

  // Explainer context: scaled training matrix + labels in model-input space.
  tensor::Matrix explain_train_;
  std::vector<int> explain_labels_;
  double probability_scale_ = 1e-3;
  comte::ComteConfig explanations_;
};

/// Renders a job analysis as the markdown block the Grafana dashboard
/// displays (verdict table + explanation bullets per anomalous node).
std::string render_markdown_report(const JobAnalysis& analysis);

}  // namespace prodigy::deploy
