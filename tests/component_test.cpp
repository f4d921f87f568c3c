#include "biochip/component.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"

namespace fbmb {
namespace {

TEST(ComponentType, Names) {
  EXPECT_STREQ(component_type_name(ComponentType::kMixer), "Mixer");
  EXPECT_STREQ(component_type_name(ComponentType::kHeater), "Heater");
  EXPECT_STREQ(component_type_name(ComponentType::kFilter), "Filter");
  EXPECT_STREQ(component_type_name(ComponentType::kDetector), "Detector");
}

TEST(ComponentType, AllTypesEnumerated) {
  EXPECT_EQ(kAllComponentTypes.size(), kComponentTypeCount);
}

TEST(ComponentId, ValidityAndOrdering) {
  EXPECT_FALSE(kNoComponent.valid());
  EXPECT_TRUE((ComponentId{0}).valid());
  EXPECT_LT(ComponentId{1}, ComponentId{2});
  std::ostringstream os;
  os << ComponentId{3};
  EXPECT_EQ(os.str(), "c3");
}

TEST(DefaultFootprint, PositiveAreas) {
  for (ComponentType type : kAllComponentTypes) {
    const Rect fp = default_footprint(type);
    EXPECT_GT(fp.width, 0);
    EXPECT_GT(fp.height, 0);
  }
}

TEST(AllocationSpec, CountsAndTotal) {
  const AllocationSpec spec{3, 1, 0, 2};
  EXPECT_EQ(spec.count(ComponentType::kMixer), 3);
  EXPECT_EQ(spec.count(ComponentType::kHeater), 1);
  EXPECT_EQ(spec.count(ComponentType::kFilter), 0);
  EXPECT_EQ(spec.count(ComponentType::kDetector), 2);
  EXPECT_EQ(spec.total(), 6);
}

TEST(AllocationSpec, ToStringMatchesTableFormat) {
  EXPECT_EQ((AllocationSpec{8, 0, 0, 2}).to_string(), "(8,0,0,2)");
  EXPECT_EQ((AllocationSpec{}).to_string(), "(0,0,0,0)");
}

TEST(Allocation, InstantiatesNamedComponents) {
  const Allocation alloc(AllocationSpec{2, 1, 0, 1});
  ASSERT_EQ(alloc.size(), 4u);
  EXPECT_EQ(alloc.component(ComponentId{0}).name, "Mixer1");
  EXPECT_EQ(alloc.component(ComponentId{1}).name, "Mixer2");
  EXPECT_EQ(alloc.component(ComponentId{2}).name, "Heater1");
  EXPECT_EQ(alloc.component(ComponentId{3}).name, "Detector1");
}

TEST(Allocation, IdsAreDense) {
  const Allocation alloc(AllocationSpec{3, 2, 1, 1});
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    EXPECT_EQ(alloc.components()[i].id.value, static_cast<int>(i));
  }
}

TEST(Allocation, ComponentsOfType) {
  const Allocation alloc(AllocationSpec{2, 0, 1, 2});
  const auto mixers = alloc.components_of_type(ComponentType::kMixer);
  ASSERT_EQ(mixers.size(), 2u);
  EXPECT_EQ(mixers[0].value, 0);
  EXPECT_EQ(mixers[1].value, 1);
  EXPECT_TRUE(alloc.components_of_type(ComponentType::kHeater).empty());
  EXPECT_EQ(alloc.components_of_type(ComponentType::kDetector).size(), 2u);
}

TEST(Allocation, HasType) {
  const Allocation alloc(AllocationSpec{1, 0, 0, 0});
  EXPECT_TRUE(alloc.has_type(ComponentType::kMixer));
  EXPECT_FALSE(alloc.has_type(ComponentType::kDetector));
}

TEST(Allocation, EmptySpec) {
  const Allocation alloc{AllocationSpec{}};
  EXPECT_TRUE(alloc.empty());
}

TEST(Allocation, FootprintsMatchDefaults) {
  const Allocation alloc(AllocationSpec{1, 1, 1, 1});
  for (const auto& comp : alloc.components()) {
    const Rect fp = default_footprint(comp.type);
    EXPECT_EQ(comp.width, fp.width);
    EXPECT_EQ(comp.height, fp.height);
  }
}

TEST(ChipSpec, DeriveGridRespectsFixedGrid) {
  ChipSpec spec;
  spec.grid_width = 40;
  spec.grid_height = 30;
  const ChipSpec derived = derive_grid(spec, 1000);
  EXPECT_EQ(derived.grid_width, 40);
  EXPECT_EQ(derived.grid_height, 30);
}

TEST(ChipSpec, DeriveGridScalesWithArea) {
  ChipSpec spec;
  const ChipSpec small = derive_grid(spec, 36, 4.0, 1);
  const ChipSpec large = derive_grid(spec, 144, 4.0, 1);
  EXPECT_EQ(small.grid_width, 12);   // sqrt(36*4)
  EXPECT_EQ(large.grid_width, 24);   // sqrt(144*4)
  EXPECT_EQ(small.grid_width, small.grid_height);
}

TEST(ChipSpec, DeriveGridHonorsMinimumSide) {
  ChipSpec spec;
  const ChipSpec derived = derive_grid(spec, 1, 1.0, 12);
  EXPECT_GE(derived.grid_width, 12);
  EXPECT_GE(derived.grid_height, 12);
}

TEST(ChipSpec, Defaults) {
  const ChipSpec spec;
  EXPECT_FALSE(spec.has_fixed_grid());
  EXPECT_DOUBLE_EQ(spec.transport_time, 2.0);       // t_c from the paper
  EXPECT_DOUBLE_EQ(spec.initial_cell_weight, 10.0); // w_e from the paper
}

}  // namespace
}  // namespace fbmb
