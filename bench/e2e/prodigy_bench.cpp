// prodigy_bench — the repository's end-to-end benchmark.
//
//   prodigy_bench --workload fleet_shallow|deep_window|dashboard_ingest
//                 --seed S [--seconds N] [--trace FILE] [--out FILE] [--smoke]
//
// Drives one seeded workload through the public APIs of the stream,
// features, pipeline, core/nn, deploy and comte layers, prints every metric
// as "metric <name> <value> <unit>", checks that the outputs are correct,
// and writes a result JSON (--out).  With --trace the run also replays a
// single-threaded per-layer ledger, records spans around the public calls
// and writes them as Chrome trace-event JSON.  Exit status: 0 when every
// correctness gate holds, 1 when one fails, 2 on a usage error.  See
// README.md for the workloads and metric definitions.
#include "bench.hpp"
#include "stats.hpp"

#include "hpas/anomalies.hpp"
#include "telemetry/app_profile.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <stdexcept>
#include <thread>

namespace prodigy::bench::e2e {

// ---------------------------------------------------------------------------
// Report

void Report::metric(const std::string& name, double value, const std::string& unit,
                    Better better, double bound, std::size_t samples) {
  metrics_[name] = MetricValue{value, unit, better, bound, false, false, samples};
}

void Report::metric_abs(const std::string& name, double value,
                        const std::string& unit, Better better, double bound_abs,
                        std::size_t samples) {
  metrics_[name] = MetricValue{value, unit, better, bound_abs, true, false, samples};
}

void Report::layer(const std::string& name, double value, const std::string& unit,
                   std::size_t samples) {
  metrics_[name] = MetricValue{value, unit, Better::Lower, 0.0, false, true, samples};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const Check& check : checks_) {
    if (!check.ok) return false;
  }
  return true;
}

void Report::print(std::FILE* out) const {
  for (const Check& check : checks_) {
    std::fprintf(out, "check %s %s: %s\n", check.ok ? "PASS" : "FAIL",
                 check.name.c_str(), check.detail.c_str());
  }
  for (const auto& [name, m] : metrics_) {
    std::fprintf(out, "metric %s %.6g %s%s", name.c_str(), m.value, m.unit.c_str(),
                 m.layer ? " (layer)" : "");
    if (m.samples > 0) std::fprintf(out, " n=%zu", m.samples);
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "attempted %llu failed %llu correct %s\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               correct() ? "true" : "false");
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool Report::write_json(const std::string& path, const Options& options) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %.17g,\n"
               "  \"traced\": %s,\n  \"smoke\": %s,\n  \"nproc\": %u,\n"
               "  \"build_type\": \"%s\",\n  \"finished_unix_s\": %lld,\n"
               "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               json_escape(options.workload).c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace_path.empty() ? "false" : "true",
               options.smoke ? "true" : "false",
               std::thread::hardware_concurrency(), PRODIGY_BENCH_BUILD_TYPE,
               static_cast<long long>(std::time(nullptr)),
               correct() ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  std::fprintf(file, "  \"checks\": [");
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    std::fprintf(file, "%s\n    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                 i == 0 ? "" : ",", json_escape(checks_[i].name).c_str(),
                 checks_[i].ok ? "true" : "false",
                 json_escape(checks_[i].detail).c_str());
  }
  std::fprintf(file, "\n  ],\n  \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    std::fprintf(file,
                 "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"better\": \"%s\", \"layer\": %s",
                 first ? "" : ",", json_escape(name).c_str(), m.value,
                 json_escape(m.unit).c_str(),
                 m.better == Better::Lower ? "lower" : "higher",
                 m.layer ? "true" : "false");
    if (!m.layer) {
      std::fprintf(file, ", \"%s\": %.17g", m.absolute ? "bound_abs" : "bound",
                   m.bound);
    }
    if (m.samples > 0) std::fprintf(file, ", \"samples\": %zu", m.samples);
    std::fprintf(file, "}");
    first = false;
  }
  std::fprintf(file, "\n  }\n}\n");
  return std::fclose(file) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void log_phase(const char* name, double seconds) {
  std::fprintf(stderr, "phase %s %.3f s, peak rss %.0f MB\n", name, seconds,
               peak_rss_mb());
}

void log_repeats(const char* name, const std::vector<double>& values) {
  std::fprintf(stderr, "repeats %s:", name);
  for (const double v : values) std::fprintf(stderr, " %.6g", v);
  const Quartiles q = quartiles(values);
  std::fprintf(stderr, " (median %.6g, spread %.3f)\n", q.median, q.spread());
}

void measure_setup(const Options& options, Report& report,
                   const std::function<SetupTimes()>& setup) {
  // Several fresh set-ups per run, so setup_s is a median and set-up work a
  // change adds shows beyond the noise of one measurement.
  const std::size_t repeats = options.smoke ? 1 : 3;
  std::vector<double> total, generate, train, preload;
  for (std::size_t r = 0; r < repeats; ++r) {
    const SetupTimes times = setup();
    log_phase("setup", times.total_s);
    total.push_back(times.total_s);
    generate.push_back(times.generate_s);
    train.push_back(times.train_s);
    preload.push_back(times.preload_s);
  }
  log_repeats("setup_s", total);
  report.metric("setup_s", quartiles(total).median, "s", Better::Lower, kTimingBound,
                repeats);
  report.layer("setup.generate_s", quartiles(generate).median, "s", repeats);
  report.layer("setup.train_s", quartiles(train).median, "s", repeats);
  report.layer("setup.preload_s", quartiles(preload).median, "s", repeats);
}

// ---------------------------------------------------------------------------
// Seeded inputs

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (a + 1) * 0xbf58476d1ce4e5b9ULL ^
                (b + 1) * 0x94d049bb133111ebULL);
  return rng();
}

telemetry::JobTelemetry make_job(std::int64_t job_id, std::size_t nodes,
                                 double duration_s, std::uint64_t seed,
                                 std::size_t group, std::size_t anomalous_per_group) {
  const auto table2 = hpas::table2_configurations();
  telemetry::JobTelemetry job;
  job.job_id = job_id;
  job.app = "LAMMPS";
  for (std::size_t first = 0; first < nodes; first += group) {
    const std::size_t g = first / group;
    telemetry::RunConfig config;
    config.app = telemetry::application_by_name("LAMMPS");
    config.job_id = job_id;
    config.num_nodes = std::min(group, nodes - first);
    config.duration_s = duration_s;
    config.seed = mix_seed(seed, static_cast<std::uint64_t>(job_id), g);
    config.first_component_id =
        job_id * kComponentsPerJob + static_cast<std::int64_t>(first);
    if (anomalous_per_group > 0) {
      config.anomaly =
          table2[(static_cast<std::uint64_t>(job_id) + g) % table2.size()];
      const std::size_t stride = std::max<std::size_t>(1, group / anomalous_per_group);
      for (std::size_t n = 0; n < config.num_nodes; n += stride) {
        config.anomalous_nodes.push_back(n);
      }
    }
    telemetry::JobTelemetry part = telemetry::generate_run(config);
    for (auto& node : part.nodes) job.nodes.push_back(std::move(node));
  }
  return job;
}

std::vector<stream::SampleBatch> encode_batches(const telemetry::JobTelemetry& job,
                                                std::size_t first_tick,
                                                std::size_t end_tick) {
  std::vector<stream::SampleBatch> batches;
  batches.reserve(end_tick > first_tick ? end_tick - first_tick : 0);
  for (std::size_t t = first_tick; t < end_tick; ++t) {
    stream::SampleBatch batch;
    batch.sequence = t;
    batch.rows.reserve(job.nodes.size());
    for (const auto& node : job.nodes) {
      if (t >= node.values.rows()) continue;
      stream::SampleRow row;
      row.job_id = node.job_id;
      row.component_id = node.component_id;
      row.timestamp = static_cast<std::int64_t>(t);
      row.app = node.app;
      const auto values = node.values.row(t);
      row.values.assign(values.begin(), values.end());
      batch.rows.push_back(std::move(row));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

deploy::AnalyticsService train_default_service(deploy::DsosStore& store,
                                               std::uint64_t seed, bool explain,
                                               std::size_t cache_capacity,
                                               SetupTimes& times) {
  util::Timer generate;
  std::vector<std::int64_t> train_jobs;
  for (std::int64_t j = 1; j <= 32; ++j) {
    // One job in four carries a Table-2 anomaly on half its nodes.
    const bool anomalous = j % 4 == 0;
    store.ingest(make_job(j, 4, 300.0, seed, 4, anomalous ? 2 : 0));
    train_jobs.push_back(j);
  }
  times.generate_s += generate.elapsed_seconds();

  util::Timer train;
  deploy::TrainFromStoreOptions options;  // the library's default model
  options.cache_capacity = cache_capacity;
  auto service =
      deploy::AnalyticsService::train_from_store(store, train_jobs, options, explain);
  times.train_s += train.elapsed_seconds();
  return service;
}

}  // namespace prodigy::bench::e2e

namespace {

using namespace prodigy::bench::e2e;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "prodigy_bench: %s\n"
               "usage: prodigy_bench --workload fleet_shallow|deep_window|"
               "dashboard_ingest --seed S\n"
               "                     [--seconds N] [--trace FILE] [--out FILE] "
               "[--smoke]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed" || arg == "--seconds") {
      const std::string text = value();
      try {
        if (arg == "--seed") {
          options.seed = std::stoull(text);
        } else {
          options.seconds = std::stod(text);
        }
      } catch (const std::exception&) {
        usage(("bad value for " + arg + ": " + text).c_str());
      }
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds >= 1.0 && options.seconds <= 600.0)) {
    usage("--seconds must be in [1, 600]");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  prodigy::util::set_log_level(prodigy::util::LogLevel::Warn);

  Tracer tracer;
  Tracer* traced = options.trace_path.empty() ? nullptr : &tracer;
  Report report;
  try {
    if (options.workload == "fleet_shallow") {
      run_fleet_shallow(options, report, traced);
    } else if (options.workload == "deep_window") {
      run_deep_window(options, report, traced);
    } else if (options.workload == "dashboard_ingest") {
      run_dashboard_ingest(options, report, traced);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.check("no_exception", false, e.what());
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::Lower, 0.1);
  if (options.trace_path.empty()) {
    const auto attempted = std::max<std::uint64_t>(1, report.attempted_count());
    report.metric_abs("failed_frac",
                      static_cast<double>(report.failed_count()) /
                          static_cast<double>(attempted),
                      "fraction", Better::Lower, 0.0, report.attempted_count());
  }

  if (traced != nullptr && !tracer.write_chrome_json(options.trace_path)) {
    report.check("trace_written", false, "cannot write " + options.trace_path);
  }
  report.print(stdout);
  if (!options.out_path.empty() && !report.write_json(options.out_path, options)) {
    std::fprintf(stderr, "prodigy_bench: cannot write %s\n", options.out_path.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}
