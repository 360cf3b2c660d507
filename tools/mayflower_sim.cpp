// mayflower_sim: run one custom replica/path-selection experiment from the
// command line and print the paper-style metrics.
//
// Examples:
//   mayflower_sim --scheme=mayflower --lambda=0.1
//   mayflower_sim --scheme=nearest-ecmp --locality=0.2,0.3,0.5 --oversub=16
//   mayflower_sim --scheme=mayflower --jobs=2000 --block-mb=128 --seeds=1,2,3
//
// Schemes: mayflower, sinbad-mayflower, sinbad-ecmp, nearest-mayflower,
//          nearest-ecmp, random-ecmp, hdfs-ecmp, hdfs-mayflower,
//          mayflower-no-multiread, mayflower-no-freeze, mayflower-greedy.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "harness/experiment.hpp"
#include "harness/meta_experiment.hpp"
#include "harness/report.hpp"
#include "harness/write_experiment.hpp"
#include "obs/observability.hpp"
#include "policy/write_placement.hpp"

using namespace mayflower;

namespace {

const std::pair<const char*, harness::SchemeKind> kSchemes[] = {
    {"mayflower", harness::SchemeKind::kMayflower},
    {"sinbad-mayflower", harness::SchemeKind::kSinbadMayflower},
    {"sinbad-ecmp", harness::SchemeKind::kSinbadEcmp},
    {"nearest-mayflower", harness::SchemeKind::kNearestMayflower},
    {"nearest-ecmp", harness::SchemeKind::kNearestEcmp},
    {"random-ecmp", harness::SchemeKind::kRandomEcmp},
    {"nearest-hedera", harness::SchemeKind::kNearestHedera},
    {"sinbad-hedera", harness::SchemeKind::kSinbadHedera},
    {"hdfs-ecmp", harness::SchemeKind::kHdfsEcmp},
    {"hdfs-mayflower", harness::SchemeKind::kHdfsMayflower},
    {"mayflower-no-multiread", harness::SchemeKind::kMayflowerNoMultiread},
    {"mayflower-no-freeze", harness::SchemeKind::kMayflowerNoFreeze},
    {"mayflower-greedy", harness::SchemeKind::kMayflowerGreedy},
};

void usage() {
  std::printf(
      "usage: mayflower_sim [--scheme=NAME] [--lambda=F] "
      "[--locality=R,P,O]\n"
      "                     [--oversub=N] [--jobs=N] [--warmup=N] "
      "[--files=N]\n"
      "                     [--block-mb=N] [--seeds=a,b,...] "
      "[--poll-sec=F]\n"
      "                     [--no-multiread] [--no-freeze] "
      "[--batch-size=N]\n"
      "                     [--topology=three_tier|fat_tree] "
      "[--fat-k=N]\n"
      "                     [--poll-budget=N] [--mouse-period=N]\n"
      "                     [--csv=FILE] [--metrics-out=FILE]\n"
      "                     [--meta-shards=N] [--meta-async] "
      "[--meta-partition=hash|subtree]\n"
      "                     [--meta-ops=N] [--meta-service-us=F]\n"
      "                     [--write-placement=static|model|measured] "
      "[--write-pipeline=on|off]\n"
      "                     [--write-jobs=N] [--write-lambda=F] "
      "[--write-frac=F]\n"
      "\nschemes:");
  for (const auto& [name, kind] : kSchemes) {
    std::printf(" %s", name);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get_bool("help")) {
    usage();
    return 0;
  }
  std::string unknown;
  if (!flags.validate({"scheme", "lambda", "locality", "oversub", "jobs",
                       "warmup", "files", "block-mb", "seeds", "poll-sec",
                       "no-multiread", "no-freeze", "batch-size",
                       "topology", "fat-k",
                       "poll-budget", "mouse-period",
                       "csv", "metrics-out",
                       "meta-shards", "meta-async", "meta-partition",
                       "meta-ops", "meta-service-us", "write-placement",
                       "write-pipeline", "write-jobs", "write-lambda",
                       "write-frac", "help"},
                      &unknown)) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    usage();
    return 2;
  }

  harness::ExperimentConfig cfg;
  const std::string scheme = flags.get_string("scheme", "mayflower");
  bool matched = false;
  for (const auto& [name, kind] : kSchemes) {
    if (scheme == name) {
      cfg.scheme = kind;
      matched = true;
    }
  }
  if (!matched) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str());
    usage();
    return 2;
  }

  cfg.gen.lambda_per_server = flags.get_double("lambda", 0.07);
  const auto locality = flags.get_double_list("locality");
  if (locality.size() == 3) {
    cfg.gen.locality = workload::Locality{locality[0], locality[1]};
  } else if (!locality.empty()) {
    std::fprintf(stderr, "--locality expects R,P,O\n");
    return 2;
  }
  cfg.fabric = net::ThreeTierConfig::with_oversubscription(
      flags.get_double("oversub", 8.0));
  // Fabric selection: the paper's oversubscribed 3-tier tree (default) or a
  // full-bisection k-ary fat-tree (--topology=fat_tree --fat-k=16).
  const std::string topology = flags.get_string("topology", "three_tier");
  if (topology == "fat_tree") {
    cfg.fabric_kind = harness::FabricKind::kFatTree;
    const long long fat_k = flags.get_int("fat-k", 8);
    if (fat_k < 2 || fat_k % 2 != 0) {
      std::fprintf(stderr, "--fat-k must be even and >= 2\n");
      return 2;
    }
    cfg.fat_tree.k = static_cast<std::uint32_t>(fat_k);
  } else if (topology != "three_tier") {
    std::fprintf(stderr, "unknown topology '%s'\n", topology.c_str());
    return 2;
  }
  // Adaptive budgeted telemetry (DESIGN.md §14). --poll-budget=0 means no
  // per-tick cap; --mouse-period=1 keeps mice at full-rate cadence. Both at
  // their defaults leave the adaptive layer off entirely.
  const long long poll_budget = flags.get_int("poll-budget", 0);
  const long long mouse_period = flags.get_int("mouse-period", 1);
  if (poll_budget < 0 || mouse_period < 1) {
    std::fprintf(stderr,
                 "--poll-budget must be >= 0 and --mouse-period >= 1\n");
    return 2;
  }
  cfg.flowserver.telemetry.samples_budget =
      static_cast<std::size_t>(poll_budget);
  cfg.flowserver.telemetry.mouse_period =
      static_cast<std::size_t>(mouse_period);
  cfg.gen.total_jobs = static_cast<std::size_t>(flags.get_int("jobs", 1100));
  cfg.warmup_jobs = static_cast<std::size_t>(flags.get_int("warmup", 100));
  cfg.catalog.num_files =
      static_cast<std::size_t>(flags.get_int("files", 400));
  cfg.catalog.file_bytes = flags.get_double("block-mb", 256.0) * 1e6;
  cfg.flowserver.poll_interval =
      sim::SimTime::from_seconds(flags.get_double("poll-sec", 1.0));
  if (flags.get_bool("no-multiread")) {
    cfg.flowserver.multiread_enabled = false;
  }
  if (flags.get_bool("no-freeze")) cfg.flowserver.freeze_enabled = false;
  // Admission batching: 1 (default) reproduces the synchronous decision
  // path exactly; N > 1 drains up to N queued reads per decision batch.
  const long long batch = flags.get_int("batch-size", 1);
  if (batch < 1) {
    std::fprintf(stderr, "--batch-size must be >= 1\n");
    return 2;
  }
  cfg.flowserver.batch_size = static_cast<std::size_t>(batch);

  // Sharded metadata plane phase: when --meta-ops > 0, each seed also runs
  // the metadata-heavy workload against an fs::Cluster with --meta-shards
  // nameserver shards (0 = the classic single nameserver) and prints
  // "meta ..." report lines. With --meta-ops=0 (default) the meta flags
  // change nothing, so the main phase stays byte-identical.
  const long long meta_shards = flags.get_int("meta-shards", 0);
  const long long meta_ops = flags.get_int("meta-ops", 0);
  if (meta_shards < 0 || meta_ops < 0) {
    std::fprintf(stderr, "--meta-shards/--meta-ops must be >= 0\n");
    return 2;
  }
  const std::string meta_partition_name =
      flags.get_string("meta-partition", "hash");
  fs::meta::Partition meta_partition = fs::meta::Partition::kHash;
  if (meta_partition_name == "subtree") {
    meta_partition = fs::meta::Partition::kSubtree;
  } else if (meta_partition_name != "hash") {
    std::fprintf(stderr, "--meta-partition must be hash or subtree\n");
    return 2;
  }
  const bool meta_async = flags.get_bool("meta-async");
  const double meta_service_us = flags.get_double("meta-service-us", 50.0);
  if (meta_service_us < 0.0) {
    std::fprintf(stderr, "--meta-service-us must be >= 0\n");
    return 2;
  }

  // Write-path phase: when --write-jobs > 0, each seed also runs the
  // write-heavy mixed tenant (harness/write_experiment.hpp) with the
  // selected placement policy and replication transport, and prints
  // "write ..." report lines. With --write-jobs=0 (default) the write
  // flags change nothing, so the main phase stays byte-identical — that is
  // the identity contract ci.sh pins with --write-placement=static
  // --write-pipeline=off.
  const std::string write_placement_name =
      flags.get_string("write-placement", "static");
  const auto write_placement =
      policy::parse_write_placement(write_placement_name);
  if (!write_placement.has_value()) {
    std::fprintf(stderr,
                 "--write-placement must be static, model or measured\n");
    return 2;
  }
  const std::string write_pipeline_name =
      flags.get_string("write-pipeline", "off");
  if (write_pipeline_name != "on" && write_pipeline_name != "off") {
    std::fprintf(stderr, "--write-pipeline must be on or off\n");
    return 2;
  }
  const bool write_pipeline = write_pipeline_name == "on";
  const long long write_jobs = flags.get_int("write-jobs", 0);
  const double write_lambda = flags.get_double("write-lambda", 0.03);
  const double write_frac = flags.get_double("write-frac", 0.7);
  if (write_jobs < 0 || write_lambda <= 0.0 || write_frac < 0.0 ||
      write_frac > 1.0) {
    std::fprintf(stderr,
                 "--write-jobs must be >= 0, --write-lambda > 0 and "
                 "--write-frac in [0, 1]\n");
    return 2;
  }

  if (!flags.errors().empty()) {
    for (const std::string& e : flags.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    return 2;
  }

  std::vector<std::uint64_t> seeds;
  for (const double s : flags.get_double_list("seeds")) {
    seeds.push_back(static_cast<std::uint64_t>(s));
  }
  if (seeds.empty()) seeds = {1};

  const std::string metrics_path = flags.get_string("metrics-out");

  harness::RunResult pooled;
  std::vector<std::pair<std::uint64_t, harness::MetaRunResult>> meta_results;
  std::vector<std::pair<std::uint64_t, harness::WriteRunResult>>
      write_results;
  std::string metrics_json;   // accumulating "runs" array body
  std::vector<double> estimator_errors;  // pooled across seeds
  std::vector<double> belief_errors;     // poll-time table-vs-actual, pooled
  for (const std::uint64_t seed : seeds) {
    cfg.seed = seed;
    // One hub per seed: flow cookies restart from 1 each run, so traces
    // from different seeds must not share a tracer.
    std::unique_ptr<obs::Observability> hub;
    if (!metrics_path.empty()) {
      hub = std::make_unique<obs::Observability>();
      cfg.obs = hub.get();
    }
    const harness::RunResult r = harness::run_experiment(cfg);
    pooled.scheme = r.scheme;
    pooled.completions.insert(pooled.completions.end(), r.completions.begin(),
                              r.completions.end());
    pooled.incomplete += r.incomplete;
    pooled.split_reads += r.split_reads;
    pooled.selections += r.selections;
    pooled.samples_applied += r.samples_applied;
    pooled.samples_deferred_mouse += r.samples_deferred_mouse;
    pooled.samples_deferred_budget += r.samples_deferred_budget;
    pooled.telemetry_promotions += r.telemetry_promotions;
    pooled.telemetry_demotions += r.telemetry_demotions;
    pooled.poll_cycles += r.poll_cycles;
    // Metadata phase: its own cluster and (when requested) its own hub, so
    // the main run's decision/flow traces are untouched by meta traffic.
    std::unique_ptr<obs::Observability> meta_hub;
    if (meta_ops > 0) {
      harness::MetaExperimentConfig meta_cfg;
      meta_cfg.shards = static_cast<std::size_t>(meta_shards);
      meta_cfg.partition = meta_partition;
      meta_cfg.async_commits = meta_async;
      meta_cfg.service_time_us = meta_service_us;
      meta_cfg.workload.total_ops = static_cast<std::size_t>(meta_ops);
      meta_cfg.seed = seed;
      if (!metrics_path.empty()) {
        meta_hub = std::make_unique<obs::Observability>();
        meta_cfg.obs = meta_hub.get();
      }
      meta_results.emplace_back(seed, harness::run_meta_experiment(meta_cfg));
    }
    // Write-path phase: its own cluster and (when requested) its own hub,
    // mirroring the metadata phase.
    std::unique_ptr<obs::Observability> write_hub;
    if (write_jobs > 0) {
      harness::WriteExperimentConfig write_cfg;
      write_cfg.placement = *write_placement;
      write_cfg.pipeline = write_pipeline;
      write_cfg.write_fraction = write_frac;
      write_cfg.lambda_per_server = write_lambda;
      write_cfg.total_jobs = static_cast<std::size_t>(write_jobs);
      write_cfg.warmup_jobs =
          std::min<std::size_t>(write_cfg.total_jobs / 8, 25);
      write_cfg.seed = seed;
      if (!metrics_path.empty()) {
        write_hub = std::make_unique<obs::Observability>();
        write_cfg.obs = write_hub.get();
      }
      write_results.emplace_back(seed,
                                 harness::run_write_experiment(write_cfg));
    }
    if (hub != nullptr) {
      if (!metrics_json.empty()) metrics_json.push_back(',');
      metrics_json += strfmt("{\"seed\":%llu,\"obs\":",
                             static_cast<unsigned long long>(seed));
      metrics_json += hub->to_json();
      if (meta_hub != nullptr) {
        metrics_json += ",\"meta_obs\":";
        metrics_json += meta_hub->to_json();
      }
      if (write_hub != nullptr) {
        metrics_json += ",\"write_obs\":";
        metrics_json += write_hub->to_json();
      }
      metrics_json.push_back('}');
      const std::vector<double> errs = hub->trace.estimator_errors();
      estimator_errors.insert(estimator_errors.end(), errs.begin(),
                              errs.end());
      const std::vector<double>& beliefs = hub->trace.belief_errors();
      belief_errors.insert(belief_errors.end(), beliefs.begin(),
                           beliefs.end());
      cfg.obs = nullptr;
    }
  }
  pooled.summary = summarize(pooled.completions);

  const Interval ci = mean_confidence_interval(pooled.completions);
  std::printf("scheme          %s\n", pooled.scheme.c_str());
  std::printf("jobs measured   %zu (%zu incomplete at cap)\n",
              pooled.completions.size(), pooled.incomplete);
  std::printf("avg             %.3f s  [%.3f, %.3f] 95%% CI\n",
              pooled.summary.mean, ci.lo, ci.hi);
  std::printf("p50 / p95 / p99 %.3f / %.3f / %.3f s\n", pooled.summary.p50,
              pooled.summary.p95, pooled.summary.p99);
  std::printf("min / max       %.3f / %.3f s\n", pooled.summary.min,
              pooled.summary.max);
  if (pooled.selections > 0) {
    std::printf("split reads     %llu of %llu selections\n",
                static_cast<unsigned long long>(pooled.split_reads),
                static_cast<unsigned long long>(pooled.selections));
  }
  if (!estimator_errors.empty()) {
    // |planned − realized| / realized per completed flow, pooled over seeds.
    const Summary err = summarize(estimator_errors);
    std::printf("est. error      mean %.4f  p50/p95/p99 %.4f/%.4f/%.4f "
                "(%zu flows)\n",
                err.mean, err.p50, err.p95, err.p99,
                estimator_errors.size());
  }
  if (!belief_errors.empty()) {
    // |table belief − actual rate| / actual rate per poll sample: accuracy
    // of the bandwidth state selections trust (what the freeze protects).
    const Summary err = summarize(belief_errors);
    std::printf("belief error    mean %.4f  p50/p95/p99 %.4f/%.4f/%.4f "
                "(%zu samples)\n",
                err.mean, err.p50, err.p95, err.p99, belief_errors.size());
  }

  // Adaptive-telemetry report (DESIGN.md §14): printed only when the layer
  // is active so default runs stay byte-identical (ci.sh strips "^telemetry"
  // when diffing a budgeted run against the legacy report).
  if (poll_budget > 0 || mouse_period > 1) {
    std::printf("telemetry       budget %lld  mouse-period %lld\n",
                poll_budget, mouse_period);
    std::printf("telemetry       applied %llu  deferred mouse %llu  "
                "deferred budget %llu\n",
                static_cast<unsigned long long>(pooled.samples_applied),
                static_cast<unsigned long long>(pooled.samples_deferred_mouse),
                static_cast<unsigned long long>(
                    pooled.samples_deferred_budget));
    const double per_cycle =
        pooled.poll_cycles > 0
            ? static_cast<double>(pooled.samples_applied) /
                  static_cast<double>(pooled.poll_cycles)
            : 0.0;
    std::printf("telemetry       promotions %llu  demotions %llu  "
                "applied/cycle %.2f\n",
                static_cast<unsigned long long>(pooled.telemetry_promotions),
                static_cast<unsigned long long>(pooled.telemetry_demotions),
                per_cycle);
  }

  if (!meta_results.empty()) {
    std::printf("meta plane      shards %lld  partition %s  commits %s  "
                "service %.1f us\n",
                meta_shards, meta_partition_name.c_str(),
                meta_async ? "async" : "sync", meta_service_us);
    for (const auto& [seed, m] : meta_results) {
      std::printf("meta seed %-5llu ops/s %.0f  ops %llu  errors %llu  "
                  "makespan %.3f s\n",
                  static_cast<unsigned long long>(seed), m.ops_per_sec,
                  static_cast<unsigned long long>(m.ops),
                  static_cast<unsigned long long>(m.errors), m.makespan_sec);
      std::printf("meta seed %-5llu lookup p50/p95/p99 %.3f/%.3f/%.3f ms  "
                  "first-byte %.3f ms\n",
                  static_cast<unsigned long long>(seed),
                  m.lookup_latency.p50 * 1e3, m.lookup_latency.p95 * 1e3,
                  m.lookup_latency.p99 * 1e3,
                  m.mean_create_to_first_byte_sec * 1e3);
      std::printf("meta seed %-5llu map_fetches %llu  wrong_shard %llu  "
                  "failovers %llu\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(m.map_fetches),
                  static_cast<unsigned long long>(m.wrong_shard_retries),
                  static_cast<unsigned long long>(m.failovers));
    }
  }

  if (!write_results.empty()) {
    std::printf("write path      placement %s  pipeline %s  frac %.2f  "
                "lambda %.3f\n",
                write_placement_name.c_str(), write_pipeline_name.c_str(),
                write_frac, write_lambda);
    for (const auto& [seed, w] : write_results) {
      std::printf("write seed %-4llu append avg/p50/p95 %.3f/%.3f/%.3f s  "
                  "read avg %.3f s\n",
                  static_cast<unsigned long long>(seed),
                  w.write_completion.mean, w.write_completion.p50,
                  w.write_completion.p95, w.read_completion.mean);
      std::printf("write seed %-4llu writes %zu  reads %zu  incomplete %zu  "
                  "chains %llu  chain_appends %llu  relay_failures %llu\n",
                  static_cast<unsigned long long>(seed), w.writes, w.reads,
                  w.incomplete,
                  static_cast<unsigned long long>(w.chains_planned),
                  static_cast<unsigned long long>(w.chain_appends),
                  static_cast<unsigned long long>(w.relay_failures));
    }
  }

  if (!metrics_path.empty()) {
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::string doc = "{\"schema_version\":2,\"scheme\":\"";
    doc += pooled.scheme;
    doc += "\",\"runs\":[";
    doc += metrics_json;
    doc += "]}";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  // Optional per-job dump for external plotting.
  const std::string csv_path = flags.get_string("csv");
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(f, "job,completion_seconds\n");
    for (std::size_t i = 0; i < pooled.completions.size(); ++i) {
      std::fprintf(f, "%zu,%.6f\n", i, pooled.completions[i]);
    }
    std::fclose(f);
    std::printf("wrote %zu samples to %s\n", pooled.completions.size(),
                csv_path.c_str());
  }
  return 0;
}
