#include "inputs.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "io/assay_text.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::string jitter_durations(const std::string& text, std::uint64_t seed) {
  static const std::string key = "duration=";
  cohls::Rng rng{seed};
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = text.find(key, pos);
    if (hit == std::string::npos) {
      out.append(text, pos, std::string::npos);
      return out;
    }
    std::size_t end = hit + key.size();
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
      ++end;
    }
    out.append(text, pos, hit + key.size() - pos);
    const long minutes = std::stol(text.substr(hit + key.size(), end - hit - key.size()));
    const double factor = 0.8 + 0.45 * rng.uniform_double();
    out += std::to_string(
        std::max(1L, std::lround(static_cast<double>(minutes) * factor)));
    pos = end;
  }
}

std::vector<SynthJob> paper_protocols() {
  return {{"kinase-2", cohls::io::to_text(cohls::assays::kinase_activity_assay(2))},
          {"gene-10", cohls::io::to_text(cohls::assays::gene_expression_assay(10))},
          {"rtqpcr-20", cohls::io::to_text(cohls::assays::rt_qpcr_assay(20))}};
}

std::vector<SynthJob> paper_synth_jobs(std::uint64_t seed, bool smoke) {
  std::vector<SynthJob> jobs = paper_protocols();
  if (smoke) {
    return jobs;
  }
  std::uint64_t stream = 0;
  const auto replica = [&](const std::string& name, const cohls::model::Assay& assay) {
    jobs.push_back({name, jitter_durations(cohls::io::to_text(assay), mix_seed(seed, ++stream))});
  };
  for (const int lanes : {2, 3, 4, 5}) {
    replica("kinase-" + std::to_string(lanes) + "j", cohls::assays::kinase_activity_assay(lanes));
  }
  for (const int cells : {10, 15, 20}) {
    replica("gene-" + std::to_string(cells) + "j", cohls::assays::gene_expression_assay(cells));
  }
  for (const int cells : {10, 20, 30}) {
    replica("rtqpcr-" + std::to_string(cells) + "j", cohls::assays::rt_qpcr_assay(cells));
  }
  return jobs;
}

SynthJob random_job(int index, int operations) {
  cohls::assays::RandomAssayOptions options;
  options.operations = operations;
  return {"random-" + std::to_string(index),
          cohls::io::to_text(
              cohls::assays::random_assay(static_cast<std::uint64_t>(index), options))};
}

}  // namespace perfbench
