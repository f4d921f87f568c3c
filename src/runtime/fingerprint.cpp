#include "runtime/fingerprint.hpp"

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace fbmb {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

std::string Fingerprint::to_hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

bool Fingerprint::from_hex(const std::string& hex, Fingerprint& out) {
  if (hex.size() != 32) return false;
  for (const char c : hex) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  out.hi = std::strtoull(hex.substr(0, 16).c_str(), nullptr, 16);
  out.lo = std::strtoull(hex.substr(16, 16).c_str(), nullptr, 16);
  return true;
}

void InputHasher::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    lo_ = (lo_ ^ p[i]) * kFnvPrime;
    hi_ = (hi_ ^ p[i]) * kFnvPrime;
    // Keep the two streams from shadowing each other: fold the position
    // into the hi stream.
    hi_ ^= (hi_ >> 29) ^ i;
  }
}

void InputHasher::u64(std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  bytes(buf, sizeof(buf));
}

void InputHasher::f64(double v) {
  // +0.0 and -0.0 compare equal but have different bit patterns; canonize
  // so equal inputs always fingerprint equal.
  if (v == 0.0) v = 0.0;
  u64(std::bit_cast<std::uint64_t>(v));
}

void InputHasher::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

const char* flow_preset_name(FlowPreset preset) {
  switch (preset) {
    case FlowPreset::kDcsa: return "dcsa";
    case FlowPreset::kBaseline: return "baseline";
    case FlowPreset::kCustom: return "custom";
  }
  return "?";
}

namespace {

void hash_graph(InputHasher& h, const SequencingGraph& graph) {
  h.u64(graph.operation_count());
  for (const Operation& op : graph.operations()) {
    h.i64(op.id.value);
    h.str(op.name);
    h.u64(static_cast<std::uint64_t>(op.type));
    h.f64(op.duration);
    h.str(op.output.name);
    h.f64(op.output.diffusion_coefficient);
  }
  const auto deps = graph.dependencies();
  h.u64(deps.size());
  for (const Dependency& dep : deps) {
    h.i64(dep.from.value);
    h.i64(dep.to.value);
  }
}

void hash_allocation(InputHasher& h, const Allocation& allocation) {
  const AllocationSpec& spec = allocation.spec();
  h.i64(spec.mixers);
  h.i64(spec.heaters);
  h.i64(spec.filters);
  h.i64(spec.detectors);
  h.u64(allocation.size());
  for (const Component& comp : allocation.components()) {
    h.i64(comp.id.value);
    h.u64(static_cast<std::uint64_t>(comp.type));
    h.str(comp.name);
    h.i64(comp.width);
    h.i64(comp.height);
  }
}

void hash_wash_model(InputHasher& h, const WashModel& wash) {
  for (const double anchor : wash.anchors()) h.f64(anchor);
  h.u64(wash.overrides().size());
  for (const auto& [d, seconds] : wash.overrides()) {
    h.f64(d);
    h.f64(seconds);
  }
}

void hash_options(InputHasher& h, const SynthesisOptions& options) {
  const ChipSpec& chip = options.chip;
  h.i64(chip.grid_width);
  h.i64(chip.grid_height);
  h.f64(chip.cell_pitch_mm);
  h.f64(chip.transport_time);
  h.f64(chip.initial_cell_weight);
  h.i64(chip.component_spacing);
  h.i64(chip.cache_segment_cells);

  h.f64(options.scheduler.transport_time);
  h.u64(static_cast<std::uint64_t>(options.scheduler.policy));
  h.boolean(options.scheduler.refine_storage);

  const PlacerOptions& placer = options.placer;
  h.f64(placer.sa.initial_temperature);
  h.f64(placer.sa.min_temperature);
  h.f64(placer.sa.cooling_rate);
  h.i64(placer.sa.iterations_per_temperature);
  h.f64(placer.beta);
  h.f64(placer.gamma);
  h.f64(kCompactionWeight);  // a constant; its slot keeps fingerprints stable
  h.i64(placer.restarts);
  h.u64(placer.seed);
  // placer.restart_executor is execution policy, not an input.

  h.i64(options.baseline_placer.correction_passes);

  h.boolean(options.router.wash_aware_weights);
  h.u64(static_cast<std::uint64_t>(options.router.order));
  h.boolean(options.router.conflict_aware);
  h.f64(kPostponeStep);  // a constant; its slot keeps fingerprints stable
  h.i64(options.router.max_postpone_steps);
  h.i64(options.router.max_fixpoint_rounds);

  h.u64(static_cast<std::uint64_t>(options.placement));
  // options.checkpoint and options.trace_id are execution policy, not
  // inputs: neither can change the result of a flow that completes.
}

}  // namespace

Fingerprint fingerprint_inputs(const SequencingGraph& graph,
                               const Allocation& allocation,
                               const WashModel& wash_model,
                               const SynthesisOptions& options,
                               FlowPreset preset) {
  InputHasher h;
  h.str("msynth-fingerprint-v1");
  h.u64(static_cast<std::uint64_t>(preset));
  hash_graph(h, graph);
  hash_allocation(h, allocation);
  hash_wash_model(h, wash_model);
  hash_options(h, options);
  return h.digest();
}

}  // namespace fbmb
