// prodigy_predict — the Fig. 4 dashboard request as a command-line call.
//
//   prodigy_predict --store store.dsos --model model_dir --job 1234
//                   [--trim 60] [--all] [--jobs N] [--concurrency K]
//                   [--repeat R] [--cache CAP] [--report] [--metrics-out PATH]
//
// --report prints the markdown dashboard block instead of plain lines.
// --metrics-out dumps the process metrics registry on exit (JSON when PATH
// ends in .json, Prometheus text otherwise).
//
// Prints one verdict per compute node of the job (or of every job with
// --all; --jobs N takes the first N jobs of the store).  With --concurrency
// and/or --repeat the tool switches to throughput mode: K client threads
// analyze the selected jobs R times each (round-robin over a shared work
// queue, exercising the service result cache) and report jobs/sec plus
// latency percentiles instead of per-node verdict lines.
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "tool_common.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

namespace {

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace prodigy;
  const tools::Flags flags(argc, argv);
  if (!flags.has("store") || !flags.has("model") ||
      (!flags.has("job") && !flags.has("all") && !flags.has("jobs"))) {
    tools::usage("usage: prodigy_predict --store FILE --model DIR "
                 "(--job ID | --all | --jobs N) [--trim S] [--concurrency K] "
                 "[--repeat R] [--cache CAP] [--report] [--metrics-out PATH]\n");
  }
  // Read up front so a bare --metrics-out exits 2 before any work.
  const std::string metrics_out = flags.get("metrics-out", std::string());
  const std::size_t cache = flags.count("cache", 128);
  const std::size_t job_limit = flags.count("jobs", 0);
  const auto concurrency = std::max<std::size_t>(1, flags.count("concurrency", 1));
  const auto repeat = std::max<std::size_t>(1, flags.count("repeat", 1));
  pipeline::PreprocessOptions preprocess;
  preprocess.trim_seconds = flags.get("trim", 60.0);
  util::set_log_level(util::LogLevel::Warn);

  const auto store = deploy::DsosStore::load(flags.get("store", std::string()));
  deploy::AnalyticsService service(
      store, core::ModelBundle::load(flags.get("model", std::string())),
      preprocess, /*explain=*/false);
  service.set_cache_capacity(cache);

  std::vector<std::int64_t> jobs;
  if (flags.has("all")) {
    jobs = store.job_ids();
  } else if (flags.has("jobs")) {
    jobs = store.job_ids();
    if (jobs.size() > job_limit) jobs.resize(job_limit);
  } else {
    jobs.push_back(flags.get("job", 0LL));
  }

  if (concurrency > 1 || repeat > 1) {
    // Throughput mode: K client threads drain a shared queue of job requests.
    std::vector<std::int64_t> work;
    work.reserve(jobs.size() * repeat);
    for (std::size_t r = 0; r < repeat; ++r) {
      work.insert(work.end(), jobs.begin(), jobs.end());
    }
    std::vector<double> latencies(work.size(), 0.0);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> anomalous_nodes{0}, total_nodes{0}, cache_hits{0};

    util::Timer wall;
    std::vector<std::thread> clients;
    clients.reserve(concurrency);
    for (std::size_t t = 0; t < concurrency; ++t) {
      clients.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= work.size()) return;
          util::Timer request;
          const auto analysis = service.analyze_job(work[i]);
          latencies[i] = request.elapsed_seconds();
          std::size_t bad = 0;
          for (const auto& node : analysis.nodes) bad += node.anomalous ? 1 : 0;
          anomalous_nodes.fetch_add(bad, std::memory_order_relaxed);
          total_nodes.fetch_add(analysis.nodes.size(), std::memory_order_relaxed);
          if (analysis.from_cache) {
            cache_hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    const double elapsed = wall.elapsed_seconds();

    std::sort(latencies.begin(), latencies.end());
    std::printf("analyzed %zu requests (%zu jobs x %zu repeats) on %zu client "
                "threads in %.3fs\n",
                work.size(), jobs.size(), repeat, concurrency, elapsed);
    std::printf("throughput %.1f jobs/s; latency p50 %.4fs p95 %.4fs p99 %.4fs; "
                "%zu cache hits\n",
                elapsed > 0 ? static_cast<double>(work.size()) / elapsed : 0.0,
                percentile(latencies, 0.50), percentile(latencies, 0.95),
                percentile(latencies, 0.99),
                cache_hits.load(std::memory_order_relaxed));
    std::printf("%zu / %zu nodes anomalous across %zu jobs\n",
                anomalous_nodes.load(std::memory_order_relaxed),
                total_nodes.load(std::memory_order_relaxed), jobs.size());
  } else {
    const bool report = flags.has("report");
    std::size_t anomalous_nodes = 0, total_nodes = 0;
    for (const auto job_id : jobs) {
      const auto analysis = service.analyze_job(job_id);
      if (report) {
        std::fputs(deploy::render_markdown_report(analysis).c_str(), stdout);
        for (const auto& node : analysis.nodes) {
          anomalous_nodes += node.anomalous ? 1 : 0;
          ++total_nodes;
        }
        continue;
      }
      std::printf("job %lld (%s): %.2fs\n", static_cast<long long>(analysis.job_id),
                  analysis.app.c_str(), analysis.seconds);
      for (const auto& node : analysis.nodes) {
        std::printf("  component %lld: %-9s score %.6f (threshold %.6f)\n",
                    static_cast<long long>(node.component_id),
                    node.anomalous ? "ANOMALOUS" : "healthy", node.score,
                    node.threshold);
        anomalous_nodes += node.anomalous ? 1 : 0;
        ++total_nodes;
      }
    }
    if (jobs.size() > 1) {
      std::printf("\n%zu / %zu nodes anomalous across %zu jobs\n", anomalous_nodes,
                  total_nodes, jobs.size());
    }
  }
  if (flags.has("metrics-out")) {
    util::MetricsRegistry::global().write_file(metrics_out);
    std::fprintf(stderr, "metrics -> %s\n", metrics_out.c_str());
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "prodigy_predict: %s\n", error.what());
  return 1;
}
