// batch-mixed: engine::BatchEngine::run with N jobs, the shared layer cache
// on and the default deterministic budgets. A round is a fresh engine and
// two run() calls: first seeded random assays interleaved with the Table-2
// protocols, then a seeded share of repeats of the first call's assays
// mixed with new random assays, so cache hits sit beside misses and stores.
// Small random layers pass the size gate, so the MILP runs here, with its
// heavy-tailed job times.
#include <algorithm>
#include <sstream>
#include <string>

#include "engine/batch.hpp"
#include "inputs.hpp"
#include "synth_job.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Random assays per round, and the share of first-call jobs the second
/// call repeats. Random assays alternate between 3 and 4 operations: layers
/// that small pass the MILP size gate, and no single job takes much more
/// than half a second.
constexpr int kRandomAssays = 96;
constexpr int kSmokeRandomAssays = 8;
constexpr double kRepeatShare = 0.3;
/// Rounds per second of --seconds (a round takes about 2 s on a 4-vCPU
/// host).
constexpr double kRoundsPerSecond = 0.5;

struct Manifest {
  std::vector<SynthJob> first, second;
};

Manifest make_manifest(std::uint64_t seed, bool smoke) {
  const int count = smoke ? kSmokeRandomAssays : kRandomAssays;
  Rng rng{mix_seed(seed, 2)};
  std::vector<SynthJob> random;
  for (int i = 0; i < count; ++i) {
    random.push_back(random_job(i, 3 + i % 2));
  }
  seeded_shuffle(random, rng);
  Manifest manifest;
  const std::vector<SynthJob> protocols = paper_protocols();
  // The first call: two thirds of the random assays, a protocol after
  // every stride of them.
  const std::size_t first_randoms = random.size() * 2 / 3;
  const std::size_t stride = first_randoms / protocols.size();
  for (std::size_t i = 0; i < first_randoms; ++i) {
    manifest.first.push_back(random[i]);
    const std::size_t done = i + 1;
    if (done % stride == 0 && done / stride <= protocols.size()) {
      manifest.first.push_back(protocols[done / stride - 1]);
    }
  }
  // The second call: a seeded share of the first call's jobs again, and the
  // remaining random assays, in seeded order.
  std::vector<SynthJob> repeats = manifest.first;
  seeded_shuffle(repeats, rng);
  repeats.resize(static_cast<std::size_t>(kRepeatShare * static_cast<double>(repeats.size())));
  manifest.second = std::move(repeats);
  manifest.second.insert(manifest.second.end(), random.begin() + static_cast<long>(first_randoms),
                         random.end());
  seeded_shuffle(manifest.second, rng);
  return manifest;
}

std::vector<engine::BatchJob> batch_jobs(const std::vector<SynthJob>& jobs) {
  std::vector<engine::BatchJob> out;
  for (const SynthJob& job : jobs) {
    engine::BatchJob batch;
    batch.name = job.name;
    batch.text = job.text;
    out.push_back(std::move(batch));
  }
  return out;
}

struct RoundResult {
  std::string stable_json;  ///< results_json(rows, stable) of both calls
  engine::CacheStats cache;
  double run_s = 0.0;  ///< summed wall of the run() calls
  std::vector<double> job_s;
  double objective_sum = 0.0;
};

}  // namespace

void run_batch_mixed(const RunConfig& config, Report& report, Tracer& tracer) {
  Manifest manifest;
  std::vector<engine::BatchJob> first, second;
  const double setup_s = timed_setup(config.smoke ? 1 : 15, [&] {
    manifest = make_manifest(config.seed, config.smoke);
    first = batch_jobs(manifest.first);
    second = batch_jobs(manifest.second);
  });
  engine::BatchOptions options;
  options.jobs = config.workers;

  Tracer off(false);
  const auto round = [&](Tracer& round_tracer) {
    RoundResult out;
    engine::BatchEngine engine(options);
    for (const std::vector<engine::BatchJob>* call : {&first, &second}) {
      const Clock::time_point begin = Clock::now();
      std::vector<engine::BatchResult> rows;
      {
        const Span span(round_tracer, "engine.run");
        rows = engine.run(*call);
      }
      out.run_s += seconds_since(begin);
      for (const engine::BatchResult& row : rows) {
        report.operation(row.status == engine::JobStatus::Ok,
                         row.name + ": " + engine::to_string(row.status) + " " + row.detail);
        out.job_s.push_back(row.wall_seconds);
        out.objective_sum += row.summary.objective;
      }
      out.stable_json += engine::results_json(rows, /*stable=*/true);
    }
    out.cache = engine.cache().stats();
    return out;
  };
  // Every round repeats the first exactly: byte-identical stable results
  // and the same cache statistics.
  const auto check_repeat = [&](const RoundResult& reference, const RoundResult& again) {
    report.check(again.stable_json == reference.stable_json,
                 "batch-mixed: results_json(stable) differs between repeat rounds");
    std::ostringstream what;
    what << "batch-mixed: cache hits differ between repeat rounds (" << reference.cache.hits
         << " vs " << again.cache.hits << ")";
    report.check(again.cache.hits == reference.cache.hits &&
                     again.cache.misses == reference.cache.misses &&
                     again.cache.stores == reference.cache.stores,
                 what.str());
  };

  report.set("setup_s", setup_s, "s");
  if (!config.trace) {
    // A fixed number of rounds (at least two, for the repeat checks).
    // Each job's latency is its fastest over the rounds, and throughput
    // the fastest round's (see input_best).
    std::vector<RoundResult> rounds;
    for (long i = 0; i < passes_for(config.seconds, kRoundsPerSecond, 2); ++i) {
      rounds.push_back(round(off));
      check_repeat(rounds.front(), rounds.back());
    }
    std::vector<std::vector<double>> samples(rounds.front().job_s.size());
    std::vector<double> throughput;
    for (const RoundResult& r : rounds) {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i].push_back(r.job_s[i]);
      }
      throughput.push_back(static_cast<double>(r.job_s.size()) / r.run_s);
    }
    const std::vector<double> latency = input_best(samples);
    const double best_throughput = *std::max_element(throughput.begin(), throughput.end());
    report.set("throughput_per_s", best_throughput, "1/s");
    report.set("p50_ms", 1e3 * median(latency), "ms");
    report.set("tail_ms", 1e3 * quantile(latency, kTail), "ms");
    report.set("synth_jobs_per_s", best_throughput, "1/s");
    report.set("synth_p50_ms", 1e3 * median(latency), "ms");
    report.set("synth_tail_ms", 1e3 * quantile(latency, kTail), "ms");
    report.set("objective_sum", rounds.front().objective_sum, "cost");
    report.set("batch_rounds", static_cast<double>(rounds.size()), "count");
    report.set("cache_hits_per_round", static_cast<double>(rounds.front().cache.hits), "count");
    return;
  }

  // Traced run: an untraced and a traced round (the overhead), then the
  // engine's layers from the traced round and the flow's layers from a
  // sequential replay of both calls through core::synthesize with the same
  // budgets and a cache of its own.
  // Rounds alternate untraced and traced; each side is read at its fastest
  // round (see input_best). The first traced round gives the numbers.
  const RoundResult untraced = round(off);
  const RoundResult traced = round(tracer);
  check_repeat(untraced, traced);
  const RoundResult untraced_again = round(off);
  Tracer scratch(true);
  const RoundResult traced_again = round(scratch);
  report.set("trace.overhead_ratio",
             std::min(traced.run_s, traced_again.run_s) /
                     std::min(untraced.run_s, untraced_again.run_s) -
                 1.0,
             "ratio");
  report.set("engine.cache_hits", static_cast<double>(traced.cache.hits), "count");
  report.set("engine.cache_misses", static_cast<double>(traced.cache.misses), "count");
  report.set("engine.cache_stores", static_cast<double>(traced.cache.stores), "count");
  report.set("engine.cache_evictions", static_cast<double>(traced.cache.evictions), "count");
  report.set("engine.cache_hit_rate", traced.cache.hit_rate(), "ratio");
  double busy = 0.0;
  for (const double s : traced.job_s) {
    busy += s;
  }
  report.set("engine.worker_busy_ratio",
             busy / (traced.run_s * static_cast<double>(config.workers)), "ratio");

  core::SynthesisOptions replay_options;
  replay_options.engine.milp.time_limit_seconds = 0.0;  // the engine's deterministic budget
  engine::LayerSolutionCache cache(options.cache_capacity, options.cache_shards);
  LayerHooks hooks(tracer, &cache);
  long iterations = 0;
  int job_id = 0;
  for (const std::vector<SynthJob>* call : {&manifest.first, &manifest.second}) {
    for (const SynthJob& job : *call) {
      const JobResult result = run_synth_job(job, replay_options, tracer, job_id++, &hooks);
      report.check(result.ok, "batch-mixed replay: " + result.error);
      iterations += result.resynthesis_iterations;
    }
  }
  report_job_layers(report, tracer, hooks.counters(), iterations);
}

}  // namespace perfbench
