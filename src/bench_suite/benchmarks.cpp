#include "bench_suite/benchmarks.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <iterator>

#include "bench_suite/synthetic.hpp"
#include "graph/graph_builder.hpp"

namespace fbmb {

Benchmark make_pcr() {
  // PCR sample preparation: four leaf mixtures (sample+primer, dNTP+buffer,
  // polymerase+Mg, template+water) combined pairwise into the reaction mix.
  GraphBuilder b;
  const auto m1 = b.mix("m1", 6, 0.2);
  const auto m2 = b.mix("m2", 6, 0.2);
  const auto m3 = b.mix("m3", 6, 0.2);
  const auto m4 = b.mix("m4", 6, 0.2);
  const auto m5 = b.mix("m5", 6, 2.0);  // pooled intermediates wash slower
  const auto m6 = b.mix("m6", 6, 2.0);
  const auto m7 = b.mix("m7", 6, 4.0);  // final master mix (enzyme-rich)
  b.dep(m1, m5).dep(m2, m5);
  b.dep(m3, m6).dep(m4, m6);
  b.dep(m5, m7).dep(m6, m7);
  return {"PCR", b.build(), AllocationSpec{3, 0, 0, 0}, b.wash_model()};
}

Benchmark make_ivd() {
  // In-vitro diagnostics: two patient samples, each assayed against three
  // reagents; every mixture is read on an optical detector.
  GraphBuilder b;
  const double mix_time = 5;
  const double detect_time = 4;
  for (int sample = 1; sample <= 2; ++sample) {
    for (int assay = 1; assay <= 3; ++assay) {
      const std::string tag =
          std::to_string(sample) + "_" + std::to_string(assay);
      // Plasma/serum mixtures carry proteins: mid-range wash times.
      const auto mix = b.mix("mix" + tag, mix_time, assay == 3 ? 4.0 : 2.0);
      const auto det = b.detect("det" + tag, detect_time, 0.2);
      b.dep(mix, det);
    }
  }
  return {"IVD", b.build(), AllocationSpec{3, 0, 0, 2}, b.wash_model()};
}

Benchmark make_cpa() {
  // Colorimetric protein assay: a binary serial-dilution tree of depth 3
  // (1 + 2 + 4 + 8 = 15 mixes) produces 8 dilution levels; each level runs
  // a 4-mix reagent chain (32 mixes) and is measured once (8 detections).
  // 15 + 32 + 8 = 55 operations.
  GraphBuilder b;
  const double mix_time = 5;
  const double detect_time = 6;

  // Dilution tree. Protein-rich stages wash slowly.
  const auto root = b.mix("dil0", mix_time, 6.0);
  std::vector<OperationId> level = {root};
  int counter = 0;
  for (int depth = 1; depth <= 3; ++depth) {
    std::vector<OperationId> next;
    for (OperationId parent : level) {
      for (int child = 0; child < 2; ++child) {
        const auto node = b.mix("dil" + std::to_string(++counter), mix_time,
                                depth == 3 ? 2.0 : 4.0);
        b.dep(parent, node);
        next.push_back(node);
      }
    }
    level = std::move(next);
  }
  assert(level.size() == 8);

  // Reagent chains + detection per dilution level.
  for (std::size_t leaf = 0; leaf < level.size(); ++leaf) {
    OperationId prev = level[leaf];
    for (int step = 1; step <= 4; ++step) {
      const auto node =
          b.mix("chain" + std::to_string(leaf + 1) + "_" +
                    std::to_string(step),
                mix_time, step % 2 == 0 ? 0.2 : 2.0);
      b.dep(prev, node);
      prev = node;
    }
    const auto det =
        b.detect("det" + std::to_string(leaf + 1), detect_time, 0.2);
    b.dep(prev, det);
  }

  Benchmark bench{"CPA", b.build(), AllocationSpec{8, 0, 0, 2},
                  b.wash_model()};
  assert(bench.graph.operation_count() == 55);
  return bench;
}

Benchmark make_paper_example() {
  // Fig. 2(a): o1..o10 on (3,1,0,1). The o1 fluid is a slow-diffusing
  // contaminant (10 s wash, the Fig. 3 discussion); everything else washes
  // in 2 s. With t_c = 2, priority(o1) = 6+3+4+2 + 3*2 = 21, matching the
  // worked example in Section IV-A.
  GraphBuilder b;
  const auto o1 = b.mix("o1", 6, 10.0);
  const auto o2 = b.mix("o2", 5, 2.0);
  const auto o3 = b.mix("o3", 4, 2.0);
  const auto o4 = b.mix("o4", 5, 2.0);
  const auto o5 = b.heat("o5", 3, 2.0);
  const auto o6 = b.mix("o6", 5, 2.0);
  const auto o7 = b.mix("o7", 4, 2.0);
  const auto o8 = b.detect("o8", 3, 0.2);
  const auto o9 = b.mix("o9", 3, 2.0);
  const auto o10 = b.detect("o10", 2, 0.2);
  b.dep(o1, o5);
  b.dep(o5, o7);
  b.dep(o2, o7);
  b.dep(o3, o6);
  b.dep(o4, o6);
  b.dep(o6, o8);
  b.dep(o6, o9);
  b.dep(o9, o10);
  b.dep(o7, o10);
  return {"PaperExample", b.build(), AllocationSpec{3, 1, 0, 1},
          b.wash_model()};
}

Benchmark make_synthetic(int index) {
  assert(index >= 1 && index <= 4);
  SyntheticSpec spec;
  switch (index) {
    case 1:
      spec.operations = 20;
      spec.allocation = {3, 3, 2, 1};
      spec.seed = 0xA1;
      break;
    case 2:
      spec.operations = 30;
      spec.allocation = {5, 2, 2, 2};
      spec.seed = 0xB2;
      break;
    case 3:
      spec.operations = 40;
      spec.allocation = {6, 4, 4, 2};
      spec.seed = 0xC3;
      break;
    default:
      spec.operations = 50;
      spec.allocation = {7, 4, 4, 3};
      spec.seed = 0xD4;
      break;
  }
  Benchmark bench;
  bench.name = "Synthetic" + std::to_string(index);
  bench.graph = generate_synthetic_graph(spec);
  bench.allocation = spec.allocation;
  return bench;
}

Benchmark make_protein_split(int levels) {
  assert(levels >= 1 && levels <= 6);
  GraphBuilder b;
  const auto prep = b.mix("prep", 4, 6.0);  // protein-rich: slow wash
  std::vector<OperationId> frontier = {prep};
  int counter = 0;
  for (int level = 1; level <= levels; ++level) {
    std::vector<OperationId> next;
    for (OperationId parent : frontier) {
      for (int child = 0; child < 2; ++child) {
        const auto node =
            b.mix("split" + std::to_string(++counter), 4,
                  level == levels ? 2.0 : 4.0);
        b.dep(parent, node);
        next.push_back(node);
      }
    }
    frontier = std::move(next);
  }
  int det = 0;
  for (OperationId leaf : frontier) {
    const auto d = b.detect("det" + std::to_string(++det), 3, 0.2);
    b.dep(leaf, d);
  }
  // Mixers scale with the split width; two detectors suffice.
  const int mixers = std::max(2, levels + 1);
  Benchmark bench{"ProteinSplit" + std::to_string(levels), b.build(),
                  AllocationSpec{mixers, 0, 0, 2}, b.wash_model()};
  return bench;
}

Benchmark make_glucose_panel() {
  GraphBuilder b;
  const auto collect = b.mix("collect", 3, 2.0);
  const auto dilute = b.mix("dilute", 4, 0.2);
  const auto aliquot = b.mix("aliquot", 3, 0.2);
  b.chain(collect, dilute, aliquot);
  const char* kAssays[] = {"glucose", "lactate", "glutamate"};
  for (const char* assay : kAssays) {
    const std::string name = assay;
    const auto enzyme = b.mix(name + "_mix", 4, 4.0);  // enzyme: slow wash
    const auto incubate = b.heat(name + "_inc", 6, 2.0);
    const auto read = b.detect(name + "_det", 3, 0.2);
    b.dep(aliquot, enzyme);
    b.chain(enzyme, incubate, read);
  }
  Benchmark bench{"GlucosePanel", b.build(), AllocationSpec{3, 1, 0, 2},
                  b.wash_model()};
  assert(bench.graph.operation_count() == 12);
  return bench;
}

namespace {

struct NamedBenchmark {
  std::string_view name;
  Benchmark (*make)();
};

/// The extended suite in order; the first seven are Table I's rows.
constexpr NamedBenchmark kSuite[] = {
    {"PCR", make_pcr},
    {"IVD", make_ivd},
    {"CPA", make_cpa},
    {"Synthetic1", [] { return make_synthetic(1); }},
    {"Synthetic2", [] { return make_synthetic(2); }},
    {"Synthetic3", [] { return make_synthetic(3); }},
    {"Synthetic4", [] { return make_synthetic(4); }},
    {"ProteinSplit2", [] { return make_protein_split(2); }},
    {"ProteinSplit3", [] { return make_protein_split(3); }},
    {"GlucosePanel", make_glucose_panel},
};
constexpr std::size_t kPaperRows = 7;

bool equals_ignoring_case(std::string_view a, std::string_view b) {
  return std::ranges::equal(a, b, [](char x, char y) {
    return std::tolower(static_cast<unsigned char>(x)) ==
           std::tolower(static_cast<unsigned char>(y));
  });
}

std::vector<Benchmark> build_first(std::size_t count) {
  std::vector<Benchmark> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(kSuite[i].make());
  return out;
}

}  // namespace

std::vector<Benchmark> extended_benchmarks() {
  return build_first(std::size(kSuite));
}

std::vector<Benchmark> paper_benchmarks() { return build_first(kPaperRows); }

std::optional<Benchmark> find_benchmark(std::string_view name) {
  for (const NamedBenchmark& entry : kSuite) {
    if (equals_ignoring_case(entry.name, name)) return entry.make();
  }
  if (equals_ignoring_case(name, "PaperExample") ||
      equals_ignoring_case(name, "paper_example")) {
    return make_paper_example();
  }
  return std::nullopt;
}

}  // namespace fbmb
