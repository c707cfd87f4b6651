#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/validator.hpp"
#include "heuristics/pipeline.hpp"
#include "heuristics/registry.hpp"
#include "test_helpers.hpp"

namespace rtsp {
namespace {

TEST(Registry, ParsesAllBuilders) {
  for (const std::string& b : known_builders()) {
    const Pipeline p = make_pipeline(b);
    EXPECT_EQ(p.name(), b);
    EXPECT_TRUE(p.improvers().empty());
  }
}

TEST(Registry, ParsesCombos) {
  const Pipeline p = make_pipeline("GOLCF+H1+H2+OP1");
  EXPECT_EQ(p.name(), "GOLCF+H1+H2+OP1");
  EXPECT_EQ(p.improvers().size(), 3u);
  EXPECT_EQ(p.improvers()[0]->name(), "H1");
  EXPECT_EQ(p.improvers()[1]->name(), "H2");
  EXPECT_EQ(p.improvers()[2]->name(), "OP1");
}

TEST(Registry, CaseInsensitive) {
  EXPECT_EQ(make_pipeline("golcf+op1").name(), "GOLCF+OP1");
  EXPECT_EQ(make_pipeline("Ar").name(), "AR");
}

TEST(Registry, RejectsUnknownNames) {
  EXPECT_THROW(make_pipeline(""), std::invalid_argument);
  EXPECT_THROW(make_pipeline("NOPE"), std::invalid_argument);
  EXPECT_THROW(make_pipeline("GOLCF+NOPE"), std::invalid_argument);
  EXPECT_THROW(make_pipeline("H1"), std::invalid_argument);        // improver first
  EXPECT_THROW(make_pipeline("GOLCF+AR"), std::invalid_argument);  // builder later
  // Retired parallel twins of RDF, GSDF and OP1.
  EXPECT_THROW(make_pipeline("RDFP"), std::invalid_argument);
  EXPECT_THROW(make_pipeline("GSDFP"), std::invalid_argument);
  EXPECT_THROW(make_pipeline("GOLCF+OP1P"), std::invalid_argument);
}

TEST(Registry, KnownListsAreStable) {
  EXPECT_EQ(known_builders(),
            (std::vector<std::string>{"AR", "GOLCF", "RDF", "GSDF"}));
  EXPECT_EQ(known_improvers(),
            (std::vector<std::string>{"H1", "H2", "OP1", "SA", "H1H2FIX"}));
}

class PipelineRun : public testing::TestWithParam<std::string> {};

TEST_P(PipelineRun, EveryComboProducesValidSchedules) {
  Rng rng(4242);
  RandomInstanceSpec spec;
  spec.servers = 8;
  spec.objects = 20;
  spec.max_replicas = 2;
  const Instance inst = random_instance(spec, rng);
  const Pipeline p = make_pipeline(GetParam());
  const Schedule h = p.run(inst.model, inst.x_old, inst.x_new, rng);
  const auto v = Validator::validate(inst.model, inst.x_old, inst.x_new, h);
  EXPECT_TRUE(v.valid) << GetParam() << ": " << v.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipelineRun,
    testing::Values("AR", "GOLCF", "RDF", "GSDF", "AR+H1+H2", "GOLCF+H1+H2",
                    "GOLCF+OP1", "GOLCF+H1+H2+OP1", "RDF+H1+H2+OP1",
                    "GSDF+H2+H1+OP1"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(Pipeline, ImproversComposeMonotonically) {
  Rng rng(777);
  RandomInstanceSpec spec;
  spec.servers = 10;
  spec.objects = 30;
  spec.max_replicas = 2;
  const Instance inst = random_instance(spec, rng);

  Rng r1(1);
  const Schedule base =
      make_pipeline("GOLCF").run(inst.model, inst.x_old, inst.x_new, r1);
  Rng r2(1);
  const Schedule cleaned =
      make_pipeline("GOLCF+H1+H2").run(inst.model, inst.x_old, inst.x_new, r2);
  Rng r3(1);
  const Schedule full =
      make_pipeline("GOLCF+H1+H2+OP1").run(inst.model, inst.x_old, inst.x_new, r3);

  // Same builder stream: H1+H2 only remove dummies; OP1 only cuts cost.
  EXPECT_LE(cleaned.dummy_transfer_count(), base.dummy_transfer_count());
  EXPECT_LE(schedule_cost(inst.model, full), schedule_cost(inst.model, cleaned));
}

}  // namespace
}  // namespace rtsp
