#include "deploy/service.hpp"

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace prodigy::deploy {

namespace {
// Process-unique bundle stamps so result-cache keys from different services
// (e.g. after a retrain) can never collide.
std::uint64_t next_bundle_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

AnalyticsService::AnalyticsService(const DsosStore& store, core::ModelBundle bundle,
                                   pipeline::PreprocessOptions preprocess,
                                   bool explain, comte::ComteConfig explanations,
                                   std::size_t cache_capacity)
    : store_(store), bundle_mutex_(std::make_unique<std::mutex>()),
      state_(std::make_shared<const BundleState>(
          BundleState{std::move(bundle), next_bundle_id(), explain})),
      preprocess_(preprocess),
      cache_(std::make_unique<AnalysisCache>(
          cache_capacity,
          &util::MetricsRegistry::global().counter("prodigy_deploy_cache_hits_total"),
          &util::MetricsRegistry::global().counter(
              "prodigy_deploy_cache_misses_total"),
          &util::MetricsRegistry::global().counter(
              "prodigy_deploy_cache_evictions_total"))),
      explanations_(explanations) {}

std::shared_ptr<const AnalyticsService::BundleState>
AnalyticsService::bundle_state() const {
  std::lock_guard lock(*bundle_mutex_);
  return state_;
}

std::uint64_t AnalyticsService::bundle_id() const { return bundle_state()->id; }

void AnalyticsService::set_bundle(core::ModelBundle next) {
  // The explainer context was built in the OLD bundle's model-input space;
  // reusing it against the new model would explain with mismatched
  // dimensions.  Queries fall back to score-only verdicts after a swap.
  auto state = std::make_shared<const BundleState>(
      BundleState{std::move(next), next_bundle_id(), /*explain=*/false});
  std::lock_guard lock(*bundle_mutex_);
  state_ = std::move(state);
}

void AnalyticsService::build_explainer_context(
    const features::FeatureDataset& train_data) {
  const auto state = bundle_state();
  explain_train_ = state->bundle.transform_full(train_data.X);
  explain_labels_ = train_data.labels;
  std::vector<std::size_t> healthy;
  for (std::size_t i = 0; i < explain_labels_.size(); ++i) {
    if (explain_labels_[i] == 0) healthy.push_back(i);
  }
  const auto healthy_scores =
      state->bundle.detector.score(explain_train_.select_rows(healthy));
  probability_scale_ = comte::ThresholdModelAdapter::estimate_scale(healthy_scores);
}

JobAnalysis AnalyticsService::analyze_job(std::int64_t job_id) const {
  util::Timer timer;
  util::MetricsRegistry::global().counter("prodigy_deploy_requests_total").increment();

  // Load the served model exactly once for the whole request: scoring,
  // thresholds, explanations, and the cache key below all come from this
  // state even if set_bundle() swaps concurrently (the shared_ptr keeps the
  // old bundle alive until the request finishes).
  const std::shared_ptr<const BundleState> state = bundle_state();

  // Fast path: a finished analysis for this exact (job, generation, bundle)
  // triple.  The generation probe takes only a shared DSOS lock; if a writer
  // re-ingests between the probe and the lookup we merely miss and recompute.
  if (auto cached =
          cache_->get({job_id, store_.job_generation(job_id), state->id})) {
    JobAnalysis analysis = **cached;
    analysis.from_cache = true;
    analysis.seconds = timer.elapsed_seconds();
    return analysis;
  }

  // The generation stamp is read under the same lock as the telemetry, so
  // the cached entry below can never pair new data with an old stamp.
  double query_s = 0.0;
  std::uint64_t generation = 0;
  util::StageTimer query_timer("deploy.request.query", &query_s);
  telemetry::JobTelemetry job = store_.query_job(job_id, &generation);
  query_timer.stop();

  JobAnalysis analysis = analyze_telemetry(std::move(job), *state);
  analysis.store_generation = generation;
  analysis.stages.insert(analysis.stages.begin(), StageLatency{"query", query_s});
  analysis.seconds = timer.elapsed_seconds();
  cache_->put({job_id, generation, state->id},
              std::make_shared<const JobAnalysis>(analysis));
  return analysis;
}

JobAnalysis AnalyticsService::analyze_telemetry(telemetry::JobTelemetry job,
                                                const BundleState& state) const {
  const core::ModelBundle& bundle = state.bundle;
  JobAnalysis analysis;
  analysis.job_id = job.job_id;
  analysis.app = job.app;

  double features_s = 0.0, score_s = 0.0, verdicts_s = 0.0;
  util::ThreadPool& pool = pool_ != nullptr ? *pool_ : util::ThreadPool::global();

  // DataGenerator/DataPipeline: per-node preprocess + feature extraction,
  // fanned out across the pool (rows written by index -> deterministic).
  // The job is moved, not copied: the caller's query already copied every
  // series out of the store.
  util::StageTimer features_timer("deploy.request.features", &features_s);
  std::vector<telemetry::JobTelemetry> jobs;
  jobs.push_back(std::move(job));
  const features::FeatureDataset dataset =
      pipeline::DataPipeline::build_from_jobs(jobs, preprocess_, &pool);
  features_timer.stop();

  // AnomalyDetector: column selection + scaler + model (batched, serial
  // w.r.t. nodes so scores match the single-threaded reference exactly).
  util::StageTimer score_timer("deploy.request.score", &score_s);
  const tensor::Matrix model_input = bundle.transform_full(dataset.X);
  const auto scores = bundle.detector.score(model_input);
  const double threshold = bundle.detector.threshold();
  score_timer.stop();

  // Verdict assembly, including CoMTE explanations for anomalous nodes.
  // Each node's verdict is independent (CoMTE search is seeded per call), so
  // the loop fans out; per-node timings land in a per-index slot and are
  // merged into the registry after the join, keeping the metrics race-free.
  util::StageTimer verdicts_timer("deploy.request.verdicts", &verdicts_s);
  std::optional<comte::ThresholdModelAdapter> adapter;
  std::optional<comte::ComteExplainer> explainer;
  if (state.explain && explain_train_.rows() > 0) {
    adapter.emplace(bundle.detector, threshold, probability_scale_);
    explainer.emplace(*adapter, explain_train_, explain_labels_,
                      bundle.metadata.feature_names, explanations_);
  }

  const std::size_t node_count = dataset.size();
  analysis.nodes.resize(node_count);
  std::vector<double> node_seconds(node_count, 0.0);
  std::atomic<std::uint64_t> anomalous_nodes{0};
  util::parallel_for(pool, 0, node_count, [&](std::size_t i) {
    util::Timer node_timer;
    NodeVerdict verdict;
    verdict.component_id = dataset.meta[i].component_id;
    verdict.score = scores[i];
    verdict.threshold = threshold;
    verdict.anomalous = scores[i] > threshold;
    if (verdict.anomalous) {
      anomalous_nodes.fetch_add(1, std::memory_order_relaxed);
      if (explainer) {
        verdict.explanation = explainer->explain_optimized(model_input.row(i));
      }
    }
    analysis.nodes[i] = std::move(verdict);
    node_seconds[i] = node_timer.elapsed_seconds();
  });
  verdicts_timer.stop();

  // Merge the per-thread measurements now that the workers are done.
  auto& registry = util::MetricsRegistry::global();
  registry.counter("prodigy_deploy_anomalous_nodes_total")
      .increment(anomalous_nodes.load(std::memory_order_relaxed));
  auto& node_histogram =
      registry.histogram("prodigy_stage_deploy_request_node_verdict_seconds");
  for (const double seconds : node_seconds) node_histogram.observe(seconds);

  analysis.stages = {{"features", features_s},
                     {"score", score_s},
                     {"verdicts", verdicts_s}};
  return analysis;
}

NodeVerdict AnalyticsService::analyze_node(std::int64_t job_id,
                                           std::int64_t component_id) const {
  util::MetricsRegistry::global().counter("prodigy_deploy_requests_total").increment();
  const std::shared_ptr<const BundleState> state = bundle_state();

  // Read and score this node alone.  Every stage of the analysis body is
  // per-row, so the verdict is bit-identical to the node's entry in
  // analyze_job.  query_node throws std::out_of_range for a component that
  // is not part of the job.
  telemetry::JobTelemetry job;
  job.job_id = job_id;
  job.nodes.push_back(store_.query_node(job_id, component_id));
  return std::move(analyze_telemetry(std::move(job), *state).nodes.front());
}

std::string render_markdown_report(const JobAnalysis& analysis) {
  std::string out;
  out += "## Anomaly detection: job " + std::to_string(analysis.job_id) + " (" +
         analysis.app + ")\n\n";
  std::size_t anomalous = 0;
  for (const auto& node : analysis.nodes) anomalous += node.anomalous ? 1 : 0;
  out += std::to_string(anomalous) + " of " + std::to_string(analysis.nodes.size()) +
         " compute nodes anomalous; analyzed in " +
         std::to_string(analysis.seconds) + " s" +
         (analysis.from_cache ? " (cache hit)" : "") + "\n\n";
  out += "| component | verdict | score | threshold |\n";
  out += "|---|---|---|---|\n";
  for (const auto& node : analysis.nodes) {
    out += "| " + std::to_string(node.component_id) + " | " +
           (node.anomalous ? "**ANOMALOUS**" : "healthy") + " | " +
           std::to_string(node.score) + " | " + std::to_string(node.threshold) +
           " |\n";
  }
  if (!analysis.stages.empty()) {
    out += "\n### Stage latency breakdown\n\n";
    out += "| stage | seconds | share |\n";
    out += "|---|---|---|\n";
    for (const auto& stage : analysis.stages) {
      const double share =
          analysis.seconds > 0.0 ? 100.0 * stage.seconds / analysis.seconds : 0.0;
      char share_text[32];
      std::snprintf(share_text, sizeof(share_text), "%.1f%%", share);
      out += "| " + stage.stage + " | " + std::to_string(stage.seconds) + " | " +
             share_text + " |\n";
    }
  }
  for (const auto& node : analysis.nodes) {
    if (!node.explanation) continue;
    out += "\n### Why component " + std::to_string(node.component_id) +
           " looks anomalous\n";
    const auto& explanation = *node.explanation;
    if (explanation.changes.empty()) {
      out += "- no counterfactual found within the search budget\n";
      continue;
    }
    for (const auto& change : explanation.changes) {
      out += "- would be classified healthy if `" + change.metric + "` were " +
             (change.mean_delta < 0 ? "lower" : "higher") + "\n";
    }
    out += "- P(anomalous) " + std::to_string(explanation.original_probability) +
           " -> " + std::to_string(explanation.final_probability) +
           (explanation.success ? " (flips to healthy)\n" : " (no flip)\n");
  }
  return out;
}

AnalyticsService AnalyticsService::train_from_store(
    const DsosStore& store, const std::vector<std::int64_t>& train_jobs,
    const TrainFromStoreOptions& options, bool explain) {
  if (train_jobs.empty()) {
    throw std::invalid_argument("train_from_store: no training jobs");
  }
  std::vector<telemetry::JobTelemetry> jobs;
  jobs.reserve(train_jobs.size());
  for (const auto job_id : train_jobs) jobs.push_back(store.query_job(job_id));

  util::StageTimer features_timer("deploy.train.features");
  const features::FeatureDataset dataset =
      pipeline::DataPipeline::build_from_jobs(jobs, options.preprocess);
  features_timer.stop();

  // Offline feature selection (Fig. 1, stage 1): chi-square needs both
  // classes; a purely-healthy store falls back to variance ranking.
  util::StageTimer select_timer("deploy.train.select");
  features::SelectionResult selection;
  const std::size_t anomalous = dataset.anomalous_count();
  if (anomalous > 0 && anomalous < dataset.size()) {
    pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
    features::FeatureDataset scaled = dataset;
    scaled.X = scaler.fit_transform(dataset.X);
    selection = features::select_features_chi2(scaled, options.top_k_features);
    util::log_info("train_from_store: chi-square selection over ", anomalous,
                   " anomalous / ", dataset.size(), " total samples");
  } else {
    selection = features::select_features_variance(dataset, options.top_k_features);
    util::log_info("train_from_store: variance selection (single-class store)");
  }
  select_timer.stop();

  util::StageTimer fit_timer("deploy.train.fit");
  const core::ModelTrainer trainer(options.model);
  core::ModelBundle bundle =
      trainer.train(dataset, selection.selected, options.system_name);
  fit_timer.stop();

  AnalyticsService service(store, std::move(bundle), options.preprocess, explain,
                           options.explanations, options.cache_capacity);
  if (explain) service.build_explainer_context(dataset);
  return service;
}

}  // namespace prodigy::deploy
