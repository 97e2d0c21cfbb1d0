// Unit tests for the detector registry (src/baselines/detector_registry):
// the built-in zoo's roster and order, construction by name, the unknown-name
// error, and open registration with bound factories.
#include "baselines/detector_registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace prodigy;

TEST(DetectorRegistryTest, BuiltinZooRegisteredInOrder) {
  const auto& registry = baselines::DetectorRegistry::global();
  const std::vector<std::string> expected = {
      "prodigy", "usad", "majority", "random", "isolation-forest",
      "lof",     "kmeans", "gmm",    "pca"};
  const auto names = registry.names();
  ASSERT_GE(names.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(names[i], expected[i]);
    EXPECT_TRUE(registry.contains(expected[i]));
  }
  EXPECT_EQ(registry.display_name("prodigy"), "Prodigy");
  EXPECT_EQ(registry.display_name("usad"), "USAD");
  EXPECT_EQ(registry.display_name("majority"), "Majority Label Prediction");
  EXPECT_EQ(registry.display_name("lof"), "Local Outlier Factor");
}

TEST(DetectorRegistryTest, MakeConstructsCheapBaselines) {
  const auto& registry = baselines::DetectorRegistry::global();
  for (const auto* name : {"random", "majority", "isolation-forest", "lof"}) {
    const auto detector = registry.make(name);
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_FALSE(detector->name().empty());
  }
}

TEST(DetectorRegistryTest, UnknownNameThrows) {
  const auto& registry = baselines::DetectorRegistry::global();
  EXPECT_THROW((void)registry.make("no-such-detector"), std::out_of_range);
  EXPECT_THROW((void)registry.display_name("no-such-detector"),
               std::out_of_range);
  EXPECT_FALSE(registry.contains("no-such-detector"));
}

TEST(DetectorRegistryTest, OpenRegistrationAndBoundFactory) {
  baselines::DetectorRegistry registry;  // project-local, not the global zoo
  std::vector<std::uint64_t> seen_seeds;
  registry.register_detector(
      "stub", "Stub Detector",
      [&seen_seeds](const baselines::DetectorOptions& options) {
        seen_seeds.push_back(options.seed);
        return baselines::DetectorRegistry::global().make("random", options);
      });
  EXPECT_TRUE(registry.contains("stub"));
  EXPECT_EQ(registry.display_name("stub"), "Stub Detector");
  ASSERT_EQ(registry.names(), std::vector<std::string>{"stub"});

  baselines::DetectorOptions options;
  options.seed = 123;
  const auto bound = registry.factory("stub", options);
  // The bound factory owns copies of name + options: usable repeatedly and
  // after the registry entry is replaced.
  EXPECT_NE(bound(), nullptr);
  registry.register_detector(
      "stub", "Replaced", [](const baselines::DetectorOptions& o) {
        return baselines::DetectorRegistry::global().make("majority", o);
      });
  EXPECT_NE(bound(), nullptr);
  ASSERT_EQ(seen_seeds.size(), 2u);
  EXPECT_EQ(seen_seeds[0], 123u);
  EXPECT_EQ(seen_seeds[1], 123u);
}

}  // namespace
