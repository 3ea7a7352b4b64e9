#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "flow/experiment.h"

namespace repro {
namespace {

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(FlowConfig, DefaultsWithoutEnv) {
  EnvGuard g1("REPRO_SCALE");
  EnvGuard g2("REPRO_QUICK");
  unsetenv("REPRO_SCALE");
  unsetenv("REPRO_QUICK");
  FlowConfig cfg = config_from_env();
  EXPECT_DOUBLE_EQ(cfg.scale, 0.15);
  EXPECT_TRUE(cfg.route_lowstress);
}

TEST(FlowConfig, ScaleOverride) {
  EnvGuard g1("REPRO_SCALE");
  setenv("REPRO_SCALE", "0.5", 1);
  FlowConfig cfg = config_from_env();
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
}

TEST(FlowConfig, QuickModeShrinksWork) {
  EnvGuard g1("REPRO_SCALE");
  EnvGuard g2("REPRO_QUICK");
  unsetenv("REPRO_SCALE");
  setenv("REPRO_QUICK", "1", 1);
  FlowConfig cfg = config_from_env();
  EXPECT_LE(cfg.scale, 0.1);
  EXPECT_LT(cfg.annealer.inner_num, 1.0);
}

TEST(FlowConfig, QuickModeRespectsSmallerExplicitScale) {
  EnvGuard g1("REPRO_SCALE");
  EnvGuard g2("REPRO_QUICK");
  setenv("REPRO_SCALE", "0.05", 1);
  setenv("REPRO_QUICK", "1", 1);
  FlowConfig cfg = config_from_env();
  EXPECT_DOUBLE_EQ(cfg.scale, 0.05);
}

// A typo'd knob must degrade to the default, never abort or zero a batch
// (std::atof would have turned "abc" into scale 0.0).
TEST(FlowConfig, InvalidScaleFallsBackToDefault) {
  EnvGuard g1("REPRO_SCALE");
  EnvGuard g2("REPRO_QUICK");
  unsetenv("REPRO_QUICK");
  for (const char* bad : {"abc", "0.5xyz", "-1", "0", "nan", "inf", ""}) {
    setenv("REPRO_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(config_from_env().scale, 0.15) << "REPRO_SCALE=" << bad;
  }
}

TEST(FlowConfig, ThreadsOverrideAndInvalidFallback) {
  EnvGuard g1("REPRO_THREADS");
  setenv("REPRO_THREADS", "3", 1);
  EXPECT_EQ(config_from_env().num_threads, 3);
  for (const char* bad : {"-2", "2x", "lots", ""}) {
    setenv("REPRO_THREADS", bad, 1);
    EXPECT_EQ(config_from_env().num_threads, 0) << "REPRO_THREADS=" << bad;
  }
}

TEST(FlowConfig, PlacerBackendOverride) {
  EnvGuard g1("REPRO_PLACER");
  setenv("REPRO_PLACER", "analytic", 1);
  EXPECT_EQ(config_from_env().placer, PlacerBackend::kAnalytic);
  setenv("REPRO_PLACER", "hybrid", 1);
  EXPECT_EQ(config_from_env().placer, PlacerBackend::kHybrid);
  setenv("REPRO_PLACER", "annealer", 1);
  EXPECT_EQ(config_from_env().placer, PlacerBackend::kAnnealer);
}

// Same degradation contract as the other env knobs: a typo selects the
// default backend with a warning, it never aborts a batch.
TEST(FlowConfig, InvalidPlacerFallsBackToAnnealer) {
  EnvGuard g1("REPRO_PLACER");
  for (const char* bad : {"Analytic", "gradient", "2", ""}) {
    setenv("REPRO_PLACER", bad, 1);
    EXPECT_EQ(config_from_env().placer, PlacerBackend::kAnnealer)
        << "REPRO_PLACER=" << bad;
  }
}

}  // namespace
}  // namespace repro
