// perfbench_driver: runs one workload for a fixed wall-clock budget and
// prints its metrics, then one JSON result line.
//
//   perfbench_driver --workload paper_read --seed 1 --seconds 15 --trace 0
//                    --work-dir DIR [--steady-bound 0.1] [--smoke]
//                    [--trace-out FILE]
//
// Order of a run: the public harness on the same config and seed (the
// harness-identity reference, and the warm-up), then repetitions until
// --seconds have passed. --trace 0 times untraced repetitions and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced repetitions
// and reports the per-layer metrics, trace.overhead_frac comparing the two.
// The exit status is 0 only when every output check passed.
//
// The wall-clock and decision timings come from the fastest repetition: on
// a shared host, other tenants' load slows whole stretches of a run by up to
// half and never speeds one up, so the least disturbed repetition is the
// steadiest measure of the program's own cost. Set-up time, a few
// milliseconds, is the median of many set-ups.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace mayflower::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up samples per run: repetitions that fit in the budget, topped up by
// set-up-only builds (set-up takes milliseconds, so one sample is noisy).
constexpr std::size_t kMinSetups = 21;

struct Options {
  Workload workload = Workload::kPaperRead;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double steady_bound = 0.1;
  bool smoke = false;
  std::filesystem::path work_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload "
               "paper_read|fattree_storm|write_mix --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--steady-bound F] [--smoke] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage(("unknown workload " + v).c_str());
      o.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--steady-bound") {
      o.steady_bound = std::strtod(v.c_str(), &end);
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number " + v).c_str());
  }
  if (!have_workload) usage("--workload is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

class Report {
 public:
  static void print(const std::string& name, double value,
                    const std::string& unit) {
    std::printf("metric %-44s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  void metric(std::vector<Metric>& out, std::string name, double value,
              std::string unit) {
    print(name, value, unit);
    out.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) {
    std::printf("FAIL %s\n", what.c_str());
    problems_.push_back(std::move(what));
  }
  bool ok() const { return problems_.empty(); }

 private:
  std::vector<std::string> problems_;
};

// Median and p99 of a timing ("%s" in `pattern` becomes p50 / p99); p99
// must have kMinTail samples beyond it.
void tail_metrics(Report& report, std::vector<Metric>& out,
                  const char* pattern, const char* unit,
                  const std::vector<double>& samples) {
  const std::string p50 = strfmt(pattern, "p50");
  const std::string p99 = strfmt(pattern, "p99");
  const auto rung = highest_supported_permille(samples.size());
  std::printf("info %s: %zu samples, highest supported percentile p%g\n",
              p99.c_str(), samples.size(), rung ? *rung / 10.0 : 0.0);
  if (!rung || *rung < 990) {
    report.problem(p99 + ": fewer than 1000 samples");
    return;
  }
  report.metric(out, p50, percentile(samples, 0.50), unit);
  report.metric(out, p99, percentile(samples, 0.99), unit);
}

// First- versus second-half median of the measured jobs, in job order: a
// growing backlog would make the per-job wall-clock depend on run length.
void steady_state_guard(Report& report, const SimOutcome& sim, double bound) {
  const std::size_t half = sim.jobs.size() / 2;
  if (half == 0) {
    report.problem("steady state: no measured jobs");
    return;
  }
  const double first = median({sim.jobs.begin(), sim.jobs.begin() + half});
  const double second = median({sim.jobs.begin() + half, sim.jobs.end()});
  const double diff = std::abs(second - first) / first;
  std::printf("steady first-half p50 %.6f s, second-half p50 %.6f s, "
              "differ by %.2f%% (bound %.0f%%)\n",
              first, second, 100.0 * diff, 100.0 * bound);
  if (diff > bound) report.problem("steady state: halves differ beyond bound");
}

int run(const Options& opt) {
  std::filesystem::create_directories(opt.work_dir);
  // The harness's fs::Cluster keeps its KV store under the temp directory:
  // keep it inside the work directory too.
  setenv("TMPDIR", opt.work_dir.c_str(), 1);

  const WorkloadSpec spec = make_spec(opt.workload, opt.seed, opt.smoke);
  Report report;
  std::printf("workload %s seed %llu%s, %s run of %.0f s\n",
              to_string(opt.workload),
              static_cast<unsigned long long>(opt.seed),
              opt.smoke ? " (smoke)" : "", opt.trace ? "traced" : "untraced",
              opt.seconds);

  // The public harness first, outside the timed phase; it also warms the
  // process up.
  const HarnessRun harness = run_harness(spec);

  SimOutcome reference;
  std::vector<double> setups;
  std::vector<double> untraced_us_per_job;
  std::vector<double> traced_us_per_job;
  // The fastest untraced repetition's cost per job and decision timings.
  double fastest_us_per_job = std::numeric_limits<double>::infinity();
  std::vector<double> fastest_decide_us;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  LayerProfile profile;
  LayerCounts counts;
  std::unique_ptr<SpanRecorder> last_trace;

  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    auto rec = std::make_unique<SpanRecorder>(traced);
    RepResult r = run_rep(spec, *rec, opt.work_dir);
    attempted += r.sim.attempted;
    failed += r.sim.failed;
    const double us_per_job =
        1e6 * r.wall_sec / static_cast<double>(r.sim.attempted);
    if (rep == 0) {
      reference = r.sim;
      const auto diffs = identity_diffs(harness, reference);
      for (const std::string& d : diffs) {
        std::printf("info identity %s\n", d.c_str());
      }
      if (!diffs.empty()) {
        report.problem("harness identity: the driver's outcome differs from "
                       "the public harness");
      }
    } else if (!(r.sim == reference)) {
      report.problem("repetition " + std::to_string(rep) +
                     ": simulated outcome differs from repetition 0");
    }
    if (traced) {
      profile.add(*rec, r.wall_sec);
      counts = r.counts;
      traced_us_per_job.push_back(us_per_job);
      last_trace = std::move(rec);
    } else {
      setups.push_back(r.setup_sec);
      if (us_per_job < fastest_us_per_job) {
        fastest_us_per_job = us_per_job;
        fastest_decide_us = std::move(r.decide_us);
      }
      untraced_us_per_job.push_back(us_per_job);
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= opt.seconds && (!opt.trace || !traced_us_per_job.empty())) {
      break;
    }
  }
  while (setups.size() < kMinSetups) {
    setups.push_back(setup_only(spec, opt.work_dir));
  }
  std::printf("info %zu untraced and %zu traced repetitions of %zu jobs; "
              "untraced us/job:",
              untraced_us_per_job.size(), traced_us_per_job.size(),
              reference.attempted);
  for (const double us : untraced_us_per_job) std::printf(" %.1f", us);
  std::printf("\n");

  // Output checks.
  if (reference.callback_errors != 0) {
    report.problem(std::to_string(reference.callback_errors) +
                   " jobs whose completion callback did not fire exactly once");
  }
  if (failed != 0) {
    report.problem(std::to_string(failed) + " of " +
                   std::to_string(attempted) + " jobs failed");
  }
  if (spec.steady_state) {
    steady_state_guard(report, reference, opt.steady_bound);
  }

  std::vector<Metric> e2e;
  report.metric(e2e, "wall_us_per_job", fastest_us_per_job, "us");
  tail_metrics(report, e2e, "decide_us_%s", "us", fastest_decide_us);
  report.metric(e2e, "setup_s", median(setups), "s");
  report.metric(e2e, "peak_rss_mb", peak_rss_mb(), "MB");
  if (!reference.reads.empty()) {
    report.metric(e2e, "sim_read_mean_s", summarize(reference.reads).mean,
                  "s");
    tail_metrics(report, e2e, "sim_read_%s_s", "s", reference.reads);
  } else {
    report.problem("no measured reads");
  }
  // Printed, not in the JSON result: only write_mix appends, and a correct
  // run's failed_frac reads 0 (the result's attempted/failed carry it).
  std::vector<Metric> appends;
  if (!reference.appends.empty()) {
    tail_metrics(report, appends, "sim_append_%s_s", "s", reference.appends);
  }
  Report::print("failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio");

  std::vector<Metric> layers;
  if (opt.trace) {
    std::printf("info traced wall %.3f s, %.1f%% of it inside spans\n",
                profile.wall_sec(),
                100.0 * profile.covered_sec() / profile.wall_sec());
    const std::vector<Metric> measured = layer_metrics(
        profile, counts, fastest_us_per_job,
        *std::min_element(traced_us_per_job.begin(), traced_us_per_job.end()));
    for (const Metric& m : measured) {
      report.metric(layers, m.name, m.value, m.unit);
    }
    if (!opt.trace_out.empty() &&
        !write_chrome_trace(opt.trace_out, *last_trace)) {
      report.problem("cannot write " + opt.trace_out);
    }
  }

  std::string json = "{\"correct\":";
  obs::json_append(report.ok(), &json);
  json += ",\"attempted\":";
  obs::json_append(static_cast<std::uint64_t>(attempted), &json);
  json += ",\"failed\":";
  obs::json_append(static_cast<std::uint64_t>(failed), &json);
  json += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : opt.trace ? layers : e2e) {
    if (!first) json += ",";
    first = false;
    obs::json_key(m.name, &json);
    json += "{\"value\":";
    obs::json_append(m.value, &json);
    json += ",\"unit\":";
    obs::json_escape(m.unit, &json);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace mayflower::perfbench

int main(int argc, char** argv) {
  return mayflower::perfbench::run(mayflower::perfbench::parse(argc, argv));
}
