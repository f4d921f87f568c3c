// Benchmark bioassays (Section V).
//
// The paper evaluates on three real-life applications — PCR, IVD, CPA —
// and four synthetic benchmarks, with the component allocations in Table I.
// The exact sequencing graphs of [5] are not published, so this module
// reconstructs them from the standard descriptions in the microfluidics
// literature with the paper's operation counts and allocations:
//
//   PCR  —  7 operations (3,0,0,0): the polymerase-chain-reaction sample
//           preparation mixing tree (4 leaf mixes combined pairwise).
//   IVD  — 12 operations (3,0,0,2): in-vitro diagnostics; two samples are
//           each mixed with three reagents and every mixture is measured
//           optically (6 mixes + 6 detections).
//   CPA  — 55 operations (8,0,0,2): colorimetric protein assay; a serial
//           binary dilution tree (15 mixes) feeds 8 dilution chains of 4
//           mixes each (32), and 8 detections read the results.
//
// Synthetic1-4 come from a seeded layered-DAG generator (synthetic.hpp)
// with 20/30/40/50 operations and the Table I allocations.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "graph/sequencing_graph.hpp"

namespace fbmb {

/// A named bioassay with its allocation and wash model (which carries the
/// per-fluid wash-time overrides used when the assay is specified in
/// wash-seconds).
struct Benchmark {
  std::string name;
  SequencingGraph graph;
  AllocationSpec allocation;
  WashModel wash;
};

Benchmark make_pcr();
Benchmark make_ivd();
Benchmark make_cpa();

/// Synthetic benchmark `index` in 1..4 (Table I rows Synthetic1..4).
Benchmark make_synthetic(int index);

/// The worked example of Fig. 2(a)/Fig. 3: a 10-operation bioassay on
/// (3,1,0,1); o1's fluid washes in 10 s, everything else in 2 s; with
/// t_c = 2 the priority value of o1 is 21 (as computed in Section IV-A).
Benchmark make_paper_example();

/// ProteinSplit(k): the exponential-dilution protein assay common in the
/// biochip literature — a shared prep mix feeding k levels of binary
/// splitting (one dilution mix per branch) with a detection per leaf.
/// k in 1..3 gives 3/7/15 mixes + 2/4/8 detects.
Benchmark make_protein_split(int levels);

/// Glucose panel: three enzymatic assays (glucose, lactate, glutamate) run
/// from one sample. A 3-mix prep chain (collect, dilute, aliquot) feeds
/// three chains of enzyme mix -> incubation (heater) -> colorimetric
/// detection: 12 operations on (3,1,0,2).
Benchmark make_glucose_panel();

/// Extended benchmark list: the Table-I seven plus the extra real-life
/// assays above (used by the scaling/extension experiments).
std::vector<Benchmark> extended_benchmarks();

/// All seven Table I benchmarks in row order.
std::vector<Benchmark> paper_benchmarks();

/// Builds the one extended-suite member whose name matches `name`
/// case-insensitively, or the worked paper example for "PaperExample" /
/// "paper_example"; nullopt for any other name.
std::optional<Benchmark> find_benchmark(std::string_view name);

}  // namespace fbmb
