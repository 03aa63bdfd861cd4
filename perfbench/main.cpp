// mlcrd_bench: the repository's benchmark.
//
//   mlcrd_bench --workload plan-hot|plan-cold|validate --seed N
//               --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 measures the end-to-end metrics over one closed-loop window of
// S seconds; --trace 1 splits S into an untraced and a traced window and
// reports the per-layer metrics (NOTES.md).  Either way the last line of
// stdout is the JSON result, and the exit code is non-zero when any
// correctness check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

/// Set-ups per untraced run; setup_s is the median of the calm ones.
constexpr int kSetups = 9;
/// Untimed load between set-up and the first timed window: the first
/// seconds of load ran measurably slower on a 4-vCPU VM (every
/// workload's first slice lagged the rest by 10-30%), so they are not
/// timed.  Not part of setup_s: it is load, not set-up work.
constexpr double kRampSeconds = 2.0;
constexpr std::size_t kPings = 2000;

int usage() {
  std::fprintf(stderr,
               "usage: mlcrd_bench --workload plan-hot|plan-cold|validate "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median over groups of slices (merge_groups) of each group's quantile q.
double sliced_quantile(const std::vector<perfbench::Histogram>& slices,
                       std::size_t per_group, double q) {
  std::vector<double> per_group_value;
  for (const auto& group : perfbench::merge_groups(slices, per_group)) {
    if (group.count() > 0) per_group_value.push_back(group.quantile(q));
  }
  return perfbench::median(std::move(per_group_value));
}

/// Every metric but peak_rss_mb comes from the calm slices of the window
/// and the calm set-ups only (kCalmSteal).
std::vector<Metric> end_to_end(const perfbench::Window& w,
                               const std::vector<double>& setups,
                               const std::vector<double>& setup_steal,
                               double rss_mb) {
  using perfbench::kSlices;
  const std::vector<std::size_t> calm = w.calm_slices();
  std::vector<perfbench::Histogram> latency, push;
  std::vector<double> cpu;
  std::uint64_t ops_seen = 0, pushes = 0;
  for (const std::size_t k : calm) {
    const auto ops = static_cast<double>(w.latency[k].count());
    if (ops > 0.0) {
      cpu.push_back(1e3 * (w.cpu_at_s[k + 1] - w.cpu_at_s[k]) / ops);
    }
    latency.push_back(w.latency[k]);
    push.push_back(w.push[k]);
    ops_seen += w.latency[k].count();
    pushes += w.push[k].count();
  }
  const std::vector<std::size_t> calm_setups = perfbench::calm_indices(
      setup_steal, perfbench::kCalmSteal, perfbench::kMinCalm);
  std::vector<double> setup_values;
  for (const std::size_t r : calm_setups) setup_values.push_back(setups[r]);

  std::fprintf(stderr, "slice throughput (1/s):");
  for (std::size_t k = 0; k < kSlices; ++k) {
    std::fprintf(stderr, " %.0f", w.slice_rate(k));
  }
  std::fprintf(stderr, "\nslice steal (%%):");
  for (const double s : w.steal) std::fprintf(stderr, " %.1f", 100.0 * s);
  std::fprintf(stderr, "\nset-ups (s, steal %%):");
  for (std::size_t r = 0; r < setups.size(); ++r) {
    std::fprintf(stderr, " %.4f (%.1f)", setups[r], 100.0 * setup_steal[r]);
  }
  std::fprintf(stderr, "\n");
  std::printf("calm: %zu of %zu slices, %zu of %zu set-ups\n", calm.size(),
              static_cast<std::size_t>(kSlices), calm_setups.size(),
              setups.size());
  return {
      {"throughput_rps", w.calm_throughput(), "1/s", ops_seen},
      {"latency_p50_ms", sliced_quantile(latency, 1, 0.50), "ms", ops_seen},
      {"latency_p95_ms", sliced_quantile(latency, 1000, 0.95), "ms",
       ops_seen},
      {"push_latency_p50_ms", sliced_quantile(push, 50, 0.50), "ms", pushes},
      {"cpu_ms_per_op", perfbench::median(cpu), "ms", ops_seen},
      {"peak_rss_mb", rss_mb, "MB", 1},
      {"setup_s", perfbench::median(setup_values), "s", setup_values.size()},
  };
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!perfbench::workload_from_string(value, &options.workload)) {
        return usage();
      }
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }

  std::printf("mlcrd_bench %s seed=%llu seconds=%g trace=%d\n",
              perfbench::to_string(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: nproc=%ld hardware_concurrency=%u compiler=\"%s\" "
              "build=%s clients=%zu\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, perfbench::load_clients());

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string detail;
  try {
    perfbench::Runner runner(options);
    if (!options.trace) {
      std::vector<double> setups, setup_steal;
      for (int r = 0; r < kSetups; ++r) {
        const perfbench::HostTicks before = perfbench::read_host_ticks();
        setups.push_back(runner.setup());
        setup_steal.push_back(
            perfbench::steal_share(before, perfbench::read_host_ticks()));
        if (r + 1 < kSetups) runner.teardown();
      }
      (void)runner.run(kRampSeconds, false);
      const perfbench::Window window =
          runner.run(options.seconds, false, /*probe=*/true);
      const double rss = peak_rss_mb();
      const std::uint64_t mismatches = runner.check(&detail);
      attempted = window.attempted;
      failed = window.failed + mismatches + window.push_failures;
      metrics = end_to_end(window, setups, setup_steal, rss);
      const double admitted =
          perfbench::delta(window.before, window.after, "net.admitted");
      const double rejected =
          perfbench::delta_prefix(window.before, window.after, "net.rejected.");
      std::printf("window: %llu ops, %llu failed, %llu checked reports "
                  "(%llu mismatched), daemon admitted %.0f rejected %.0f\n",
                  static_cast<unsigned long long>(window.attempted),
                  static_cast<unsigned long long>(window.failed),
                  static_cast<unsigned long long>(runner.samples()),
                  static_cast<unsigned long long>(mismatches), admitted,
                  rejected);
      if (attempted < 1000) {
        detail += "too few operations: a run needs at least 1000\n";
        correct = false;
      }
      std::uint64_t pushes = 0;
      for (const perfbench::Histogram& slice : window.push) {
        pushes += slice.count();
      }
      if (pushes == 0) {
        detail += "no pushed revision was measured\n";
        correct = false;
      }
    } else {
      (void)runner.setup();
      const double ping_us = runner.ping_p50_us(kPings);
      (void)runner.run(kRampSeconds, false);
      const perfbench::Window untraced =
          runner.run(options.seconds / 2.0, false);
      const perfbench::Window traced = runner.run(options.seconds / 2.0, true);
      const std::uint64_t mismatches = runner.check(&detail);
      attempted = untraced.attempted + traced.attempted;
      failed = untraced.failed + traced.failed + mismatches;
      std::string spans;
      metrics = perfbench::layer_metrics(
          runner, untraced, traced, ping_us,
          options.spans_path.empty() ? nullptr : &spans);
      if (!options.spans_path.empty()) {
        std::ofstream out(options.spans_path, std::ios::binary);
        out << "thread\tspan\tparent\tname\trequest\tstart_ns\tend_ns\n"
            << spans;
        if (!out) {
          detail += "cannot write " + options.spans_path + "\n";
          correct = false;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlcrd_bench: %s\n", e.what());
    return 1;
  }
  correct = correct && failed == 0;
  if (!detail.empty()) std::fprintf(stderr, "%s", detail.c_str());
  const std::string result =
      perfbench::render_result(correct, attempted, failed, metrics);
  std::fwrite(result.data(), 1, result.size(), stdout);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
