#include "bench_suite/synthetic.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace fbmb {

namespace {

/// The four reference diffusion classes (Section II-B): wash times spread
/// across the anchored 0.2 s - 6 s range.
constexpr double kDiffusionClasses[] = {
    diffusion::kSmallMolecule,  // ~0.2 s
    diffusion::kProtein,        // ~2.7 s
    diffusion::kLargeComplex,   // ~4.8 s
    diffusion::kCell,           // ~6.0 s
};

ComponentType draw_type(Rng& rng, const AllocationSpec& alloc) {
  const int total = alloc.total();
  assert(total > 0);
  int pick = rng.uniform_int(1, total);
  for (ComponentType type : kAllComponentTypes) {
    pick -= alloc.count(type);
    if (pick <= 0) return type;
  }
  return ComponentType::kMixer;
}

}  // namespace

SequencingGraph generate_synthetic_graph(const SyntheticSpec& spec) {
  assert(spec.operations > 0);
  assert(spec.allocation.total() > 0);
  Rng rng(spec.seed);
  SequencingGraph graph;

  // Partition operations into layers.
  std::vector<int> layer_sizes;
  int remaining = spec.operations;
  while (remaining > 0) {
    const int width = std::min(
        remaining, rng.uniform_int(spec.min_layer_width,
                                   spec.max_layer_width));
    layer_sizes.push_back(width);
    remaining -= width;
  }

  std::vector<std::vector<OperationId>> layers;
  int op_counter = 0;
  for (std::size_t li = 0; li < layer_sizes.size(); ++li) {
    std::vector<OperationId> layer;
    for (int i = 0; i < layer_sizes[li]; ++i) {
      ComponentType type = draw_type(rng, spec.allocation);
      // Detections make poor intermediate producers; keep them off the
      // first layer so they always have something to measure.
      if (li == 0 && type == ComponentType::kDetector &&
          spec.allocation.mixers > 0) {
        type = ComponentType::kMixer;
      }
      const double duration =
          rng.uniform_int(spec.min_duration, spec.max_duration);
      const double d = kDiffusionClasses[rng.uniform_int(0, 3)];
      const std::string name =
          std::string("s").append(std::to_string(++op_counter));
      layer.push_back(graph.add_operation(
          name, type, duration, Fluid{name + "_out", d}));
    }
    layers.push_back(std::move(layer));
  }

  // Dependencies: every non-source operation takes 1-2 parents from earlier
  // layers, biased toward the immediately preceding layer.
  for (std::size_t li = 1; li < layers.size(); ++li) {
    for (OperationId op : layers[li]) {
      const bool can_take_two =
          graph.operation(op).type != ComponentType::kDetector;
      const int want = can_take_two ? rng.uniform_int(1, 2) : 1;
      int added = 0;
      for (int attempt = 0; attempt < 16 && added < want; ++attempt) {
        // 70%: previous layer; else any earlier layer.
        const std::size_t src_layer =
            rng.chance(0.7) ? li - 1
                            : static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<int>(li) - 1));
        const auto& candidates = layers[src_layer];
        const OperationId parent = candidates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))];
        if (graph.add_dependency(parent, op)) ++added;
      }
      // Guarantee at least one parent (fall back to the first op of the
      // previous layer; add_dependency is a no-op if already present).
      if (added == 0) {
        graph.add_dependency(layers[li - 1].front(), op);
      }
    }
  }
  assert(graph.is_acyclic());
  return graph;
}

}  // namespace fbmb
