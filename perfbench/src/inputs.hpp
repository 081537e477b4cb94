// Input generation. Every input the library sees is made here from the
// workload seed: the Table-2 protocols, their scaled replicas with
// seed-jittered step durations, and seeded random assays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synth_job.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Fisher-Yates shuffle driven by the library's seeded generator.
template <typename T>
void seeded_shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1],
              items[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

/// Scales every `duration=N` of an assay text by a factor drawn uniformly
/// from [0.8, 1.25] (rounded, at least 1 minute).
[[nodiscard]] std::string jitter_durations(const std::string& text, std::uint64_t seed);

/// The three Table-2 protocols at their paper sizes, unchanged: kinase
/// activity (2 lanes), gene expression (10 cells), RT-qPCR (20 cells).
[[nodiscard]] std::vector<SynthJob> paper_protocols();

/// paper-synth's job list: the three protocols plus replicas on a fixed
/// ladder of sizes with seed-jittered durations. The ladder starts at the
/// paper sizes (kinase 2-5 lanes, gene expression 10/15/20 cells, RT-qPCR
/// 10/20/30 cells): smaller replicas have layers small enough for the MILP
/// size gate, and this workload is the one that bypasses the MILP. Smoke:
/// the protocols only.
[[nodiscard]] std::vector<SynthJob> paper_synth_jobs(std::uint64_t seed, bool smoke);

/// Pool entry `index` of the random assays: assays::random_assay with seed
/// `index` and `operations` operations. The pool does not depend on the
/// workload seed: one assay's MILP cost differs from another's by up to
/// 100x, and a run holds only a few hundred, so drawing them per seed would
/// make the run-to-run spread a property of the draw. The workload seed
/// orders the pool and picks the repeats instead.
[[nodiscard]] SynthJob random_job(int index, int operations);

}  // namespace perfbench
