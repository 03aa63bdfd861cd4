// The benchmark's moving parts: the daemon runner (set-up, closed-loop
// windows, push probe, correctness gate, counter scrape) and the per-layer
// replay of the traced run.  See NOTES.md for what each workload is for.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

enum class Workload { kPlanHot, kPlanCold, kValidate };

[[nodiscard]] bool workload_from_string(std::string_view text, Workload* out);
[[nodiscard]] const char* to_string(Workload workload);

struct Options {
  Workload workload = Workload::kPlanHot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced run: where the span file goes
};

/// plan-hot's working set size and skew.
inline constexpr std::size_t kHotKeys = 1000;
inline constexpr double kZipfExponent = 1.0;
/// Every request is bounded; a hang becomes a failed operation.
inline constexpr int kRequestTimeoutMs = 5000;
/// Open-loop period of the push probe on non-ingest workloads.
inline constexpr int kProbeIntervalMs = 50;
/// Traced windows use a fixed part of each sequence, so the replayed
/// prefix (and every exact count taken from it) repeats from run to run:
/// their clients start at this index.
inline constexpr std::size_t kTracedIndex = std::size_t{1} << 30;
/// Batches per L1 rate phase of the ingest stream the layer survey
/// replays.  Each phase switch re-plans twice (the CUSUM alarm on the
/// switch batch, then the posterior catching up on the next), so one batch
/// in ten drifts.
inline constexpr std::size_t kIngestPhase = 20;

/// Closed-loop client count: min(4, hardware threads).
[[nodiscard]] std::size_t load_clients();

/// Spans of one request share this id.
[[nodiscard]] inline std::uint64_t request_id(std::size_t client,
                                              std::size_t index) {
  return (static_cast<std::uint64_t>(client + 1) << 40) | index;
}

/// Daemon counters (and timer counts, as "<name>.count") by name.
using Counters = std::map<std::string, double>;

[[nodiscard]] double delta(const Counters& before, const Counters& after,
                           const std::string& name);
/// Sum of the deltas of every counter whose name starts with `prefix`.
[[nodiscard]] double delta_prefix(const Counters& before,
                                  const Counters& after,
                                  const std::string& prefix);

/// Time slices of a window (one second each in a 25 s window); the
/// end-to-end metrics are medians over its calm slices.
inline constexpr std::size_t kSlices = 25;
/// A slice or a set-up is calm when the hypervisor stole at most this share
/// of the machine's CPU time during it ...
inline constexpr double kCalmSteal = 0.05;
/// ... and when fewer are calm, this many with the least steal count.
inline constexpr std::size_t kMinCalm = 3;

/// One timed closed-loop window.  Its records take the same memory
/// whatever the throughput: latencies go into one Histogram per slice.
struct Window {
  Window() : latency(kSlices), push(kSlices) {}

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double nominal_seconds = 0.0;  ///< the requested window length
  double wall_seconds = 0.0;     ///< until the last client finished
  std::vector<Histogram> latency;  ///< per slice; failed ops enter as +inf
  std::vector<Histogram> push;     ///< probe push latencies, per slice
  std::uint64_t push_failures = 0;
  /// Process CPU seconds at the start and at each slice boundary; the last
  /// entry is taken after every client finished.
  std::vector<double> cpu_at_s;
  /// Per slice: the share of the machine's CPU time the hypervisor stole.
  std::vector<double> steal;
  std::vector<std::size_t> first;  ///< first sequence index per client
  std::vector<std::size_t> done;   ///< operations per client
  std::vector<SpanLog> logs;       ///< traced windows: one log per client
  Counters before;
  Counters after;

  /// The slices the end-to-end metrics are taken over, in time order.
  [[nodiscard]] std::vector<std::size_t> calm_slices() const {
    return calm_indices(steal, kCalmSteal, kMinCalm);
  }
  /// Operations per second completed in slice k; the last slice runs until
  /// the last client finished.
  [[nodiscard]] double slice_rate(std::size_t k) const;
  /// Median of slice_rate over the calm slices.
  [[nodiscard]] double calm_throughput() const;
};

/// The machine's CPU ticks now, from /proc/stat; zeros where it cannot be
/// read, so that every interval then counts as calm.
[[nodiscard]] HostTicks read_host_ticks();

/// The push probe's ingest stream: an ingest connection and a subscriber
/// connection, plus what the correctness gate replays.
struct StreamState;
class TracedConn;

class Runner {
 public:
  explicit Runner(Options options);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Starts a daemon with production defaults, connects the clients and
  /// runs the workload's pre-warm; returns the seconds it took.
  double setup();
  /// Drains the daemon and drops every connection.
  void teardown();

  /// p50 of Client::ping round trips on the idle daemon, microseconds.
  [[nodiscard]] double ping_p50_us(std::size_t pings);

  /// Runs the workload closed-loop for `seconds`, continuing each client's
  /// sequence where the previous window stopped.  Traced windows record
  /// client-side spans and use the protocol functions directly.  With
  /// `probe`, one extra stream sends a drifting ingest batch every
  /// kProbeIntervalMs during the window and times each pushed revision
  /// (Window::push), so the push path is measured under the workload's
  /// own load.
  [[nodiscard]] Window run(double seconds, bool traced, bool probe = false);

  /// The correctness gate; returns the number of mismatching operations and
  /// describes the first few in *detail.
  [[nodiscard]] std::uint64_t check(std::string* detail);

  [[nodiscard]] Counters scrape();
  /// Reports kept for the correctness gate so far.
  [[nodiscard]] std::size_t samples() const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t clients() const noexcept { return clients_; }
  [[nodiscard]] const std::vector<mlcr::svc::PlanRequest>& hot_set() const {
    return hot_set_;
  }
  [[nodiscard]] const Zipf& zipf() const noexcept { return zipf_; }

 private:
  struct Sample {
    std::size_t client = 0;
    std::size_t index = 0;
    mlcr::svc::PlanReport plan;
    mlcr::svc::SimReport sim;
  };

  void probe_thread(Window& window, std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point deadline);
  void client_thread(Window& window, std::size_t c,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point deadline,
                     bool traced);
  /// Connections are always opened one after another from one thread: the
  /// daemon assigns them to reactor shards round-robin in accept order, and
  /// a racy order could put two busy connections on one shard in one run
  /// and on two in the next.
  [[nodiscard]] std::unique_ptr<mlcr::net::Client> connect() const;
  /// Keeps `sample` if client c's reservoir takes it (reservoir_slot).
  void keep_sample(std::size_t c, Sample sample);
  std::uint64_t check_stream(const StreamState& stream, std::string* detail);

  Options options_;
  std::size_t clients_;
  Zipf zipf_;
  std::vector<mlcr::svc::PlanRequest> hot_set_;

  std::unique_ptr<mlcr::net::Server> server_;
  std::unique_ptr<mlcr::net::Client> metrics_client_;
  std::vector<std::unique_ptr<mlcr::net::Client>> load_;
  std::unique_ptr<StreamState> probe_;
  std::vector<std::unique_ptr<TracedConn>> traced_conns_;
  std::vector<std::size_t> next_;  ///< next sequence index per client
  /// The correctness gate's sample: per client, a reservoir of accepted
  /// reports, and how many candidates it has seen.
  std::vector<std::vector<Sample>> samples_;
  std::vector<std::size_t> seen_;
};

/// The traced run's per-layer metrics (replay, layer survey, micro-costs),
/// given the runner after its traced window.
[[nodiscard]] std::vector<Metric> layer_metrics(Runner& runner,
                                                const Window& untraced,
                                                const Window& traced,
                                                double ping_us,
                                                std::string* spans_file);

}  // namespace perfbench
