// prodigy_simulate — generate LDMS-style telemetry into a DSOS snapshot.
//
//   prodigy_simulate --out store.dsos [--system Eclipse|Volta]
//                    [--scale 0.02] [--duration 300] [--seed 1]
//                    [--metrics-out PATH]
//   prodigy_simulate --out store.dsos --app LAMMPS --jobs 5 --nodes 4
//                    [--anomaly memleak --intensity 1.0 --anomalous-nodes 1,3]
//
// Two modes: a whole system collection (the §5.2 ground-truth methodology,
// healthy + Table-2 anomaly runs), or explicit runs of one application.
#include "deploy/dsos.hpp"
#include "telemetry/dataset_builder.hpp"
#include "tool_common.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

#include <cstdio>
#include <exception>

int main(int argc, char** argv) try {
  using namespace prodigy;
  const tools::Flags flags(argc, argv);
  if (!flags.has("out")) {
    tools::usage("usage: prodigy_simulate --out FILE "
                 "[--system Eclipse|Volta --scale S | --app NAME --jobs N]\n");
  }
  const std::string metrics_out = flags.get("metrics-out", std::string());
  const std::size_t jobs = flags.count("jobs", 5);
  const std::size_t nodes = flags.count("nodes", 4);
  const auto anomalous_nodes = tools::parse_node_list(
      "anomalous-nodes", flags.get("anomalous-nodes", std::string()));
  util::set_log_level(util::LogLevel::Warn);
  deploy::DsosStore store;

  if (flags.has("app")) {
    // Explicit runs of one application.
    const auto app = telemetry::application_by_name(flags.get("app", std::string()));
    util::Rng rng(static_cast<std::uint64_t>(flags.get("seed", 1LL)));
    for (std::size_t j = 0; j < jobs; ++j) {
      telemetry::RunConfig config;
      config.app = app;
      config.job_id = flags.get("first-job-id", 1000LL) + static_cast<long long>(j);
      config.num_nodes = nodes;
      config.duration_s = flags.get("duration", 300.0);
      config.seed = rng();
      config.first_component_id = config.job_id * 100;
      if (flags.has("anomaly")) {
        config.anomaly.kind =
            hpas::anomaly_kind_from_string(flags.get("anomaly", std::string()));
        config.anomaly.intensity = flags.get("intensity", 1.0);
        config.anomaly.config = flags.get("anomaly", std::string());
        config.anomalous_nodes = anomalous_nodes;
        config.duration_s *= hpas::expected_slowdown(config.anomaly);
      }
      store.ingest(telemetry::generate_run(config));
    }
  } else {
    // Whole-system ground-truth collection.
    const std::string system = flags.get("system", std::string("Eclipse"));
    telemetry::DatasetSpec spec =
        system == "Volta"
            ? telemetry::volta_dataset_spec(flags.get("scale", 0.02),
                                            flags.get("duration", 300.0))
            : telemetry::eclipse_dataset_spec(flags.get("scale", 0.02),
                                              flags.get("duration", 300.0));
    spec.seed ^= static_cast<std::uint64_t>(flags.get("seed", 1LL));
    telemetry::for_each_run(
        spec, [&store](const telemetry::JobTelemetry& job) { store.ingest(job); });
  }

  const std::string out = flags.get("out", std::string());
  store.save(out);
  std::printf("wrote %zu jobs (%zu datapoints) to %s\n", store.job_count(),
              store.datapoint_count(), out.c_str());
  if (flags.has("metrics-out")) {
    util::MetricsRegistry::global().write_file(metrics_out);
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "prodigy_simulate: %s\n", error.what());
  return 1;
}
