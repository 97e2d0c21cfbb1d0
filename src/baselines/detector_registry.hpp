// Anomalib-style detector registry (arXiv:2202.08341): every detector in the
// zoo — the paper's Prodigy VAE, the Figure-5 baselines, and the extended
// related-work models — sits behind one string -> factory table over
// core::Detector.  Tools and benches construct models through here, so a
// detector's name, display label, and budget knobs have a single source of
// truth.
//
// Registration is open: call register_detector() to add project-local
// detectors (tests do).  The built-in roster self-registers on first use of
// global(), so linking the library is enough.
#pragma once

#include "core/detector_iface.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace prodigy::baselines {

/// Budget knobs shared by every factory.  A detector uses what applies to it
/// (e.g. the tree/neighbor baselines ignore the epoch counts).
struct DetectorOptions {
  std::size_t epochs = 300;        // VAE training epochs
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;
  std::size_t usad_epochs = 100;
  std::vector<std::size_t> vae_hidden = {64, 24};
  std::size_t vae_latent = 8;
  std::uint64_t seed = 99;  // seeded baselines (random prediction)
};

class DetectorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<core::Detector>(const DetectorOptions&)>;

  /// The process-wide registry, with the built-in zoo pre-registered:
  /// prodigy, usad, majority, random, isolation-forest, lof, kmeans, gmm,
  /// pca.  Thread-safe to read after static initialization; registration is
  /// expected at startup (not concurrently with make()).
  static DetectorRegistry& global();

  /// Adds (or replaces) a detector.  `name` is the stable lookup key
  /// (kebab-case); `display_name` is the human label benches print.
  void register_detector(std::string name, std::string display_name,
                         Factory factory);

  /// Constructs a detector by name.  Throws std::out_of_range with the list
  /// of known names for an unknown one.
  std::unique_ptr<core::Detector> make(const std::string& name,
                                       const DetectorOptions& options = {}) const;

  /// Binds name + options into a reusable nullary factory (the shape
  /// eval::DetectorFactory and the bench roster want).
  std::function<std::unique_ptr<core::Detector>()> factory(
      const std::string& name, const DetectorOptions& options = {}) const;

  bool contains(const std::string& name) const;
  const std::string& display_name(const std::string& name) const;
  /// Registered names in registration order (built-ins first).
  std::vector<std::string> names() const;

 private:
  struct Entry {
    std::string display_name;
    Factory factory;
  };

  const Entry& entry(const std::string& name) const;

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace prodigy::baselines
