// Pure pieces of the mlcrd benchmark: counter-based request
// generators, the Zipf sampler, the percentile rule, the span log and its
// self-time reduction, and the result printer.  Nothing here touches a
// socket or a clock except SpanLog, so tests/test_core.cpp pins all of it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ctrl/replanner.h"
#include "svc/plan_request.h"
#include "svc/sim_request.h"

namespace perfbench {

// --- counter-based randomness ------------------------------------------
//
// Every generated input is a pure function of (seed, stream, a, b): request
// i of client c never depends on how many requests other clients sent, so
// requests are generated on the fly and both commits of a comparison see
// byte-identical request sequences.

/// splitmix64 finalizer over the four words.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t a = 0, std::uint64_t b = 0);

/// Sequential draws from one counter key.
class Draw {
 public:
  Draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t a = 0,
       std::uint64_t b = 0)
      : state_(mix(seed, stream, a, b)) {}
  [[nodiscard]] std::uint64_t bits();
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();
  /// exp(uniform(log lo, log hi)).
  [[nodiscard]] double log_uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  [[nodiscard]] std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Stream ids keep the generators of different workloads independent.
enum Stream : std::uint64_t {
  kHotStream = 1,
  kHotPick = 2,
  kColdStream = 3,
  kValidateStream = 4,
  kIngestStream = 5,
  kSampleStream = 6,
  kSurveyStream = 7,
  kWarmupStream = 8,
};

// --- Zipf sampler --------------------------------------------------------

/// Rank k in [0, n) with probability proportional to 1 / (k + 1)^s, by
/// inverse CDF on a precomputed table.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// Maps a uniform u in [0, 1) to a rank.
  [[nodiscard]] std::size_t sample(double u) const;
  [[nodiscard]] double probability(std::size_t k) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// --- percentile rule -----------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least q of all
/// samples are <= it (q in (0, 1]).  A failed operation enters as +inf, so
/// a failure always counts as missing every latency limit.  0 on no data.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] double mean(const std::vector<double>& samples);

/// Median (mean of the middle two for an even count); 0 on no data.
[[nodiscard]] double median(std::vector<double> samples);

/// The slice of [0, window_s), cut into `slices` equal parts, that a
/// completion at `t` seconds falls in; completions at or past the end fall
/// in the last slice.  The benchmark reports medians over a window's
/// slices, so a transient stall of the host moves one slice, not the result.
[[nodiscard]] std::size_t slice_of(double t, double window_s,
                                   std::size_t slices);

/// Latencies in fixed memory, so the benchmark's own records do not grow
/// with throughput and peak_rss_mb tracks the daemon.  Log-linear buckets:
/// kSubBuckets per power of two from 2^(kMinExp-1) to 2^kMaxExp ms (values
/// outside fall in the end buckets), plus one bucket above them all for
/// failed operations (+inf).
class Histogram {
 public:
  static constexpr int kSubBuckets = 128;
  static constexpr int kMinExp = -13;  ///< smallest bucket starts at ~61 ns
  static constexpr int kMaxExp = 18;   ///< largest ends at ~262 s

  Histogram();
  void add(double ms);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// The percentile() rule on the recorded samples, read inside the bucket
  /// that holds the nearest-rank sample by its rank there (as if the
  /// bucket's samples were spread evenly over it): within 1 / kSubBuckets of
  /// the sample, relative.  +inf when that sample is a failure; 0 on no
  /// data.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Consecutive slices merged into groups of equal slice counts (give or
/// take one), as many groups as can each hold `per_group` samples when the
/// slices hold the average count (at least one group), so a tail
/// percentile has enough samples beyond it in every group.
[[nodiscard]] std::vector<Histogram> merge_groups(
    const std::vector<Histogram>& slices, std::size_t per_group);

// --- host steal time -----------------------------------------------------
//
// On a shared virtual machine the hypervisor runs other tenants on the
// machine's virtual CPUs for seconds at a time; that time shows as "steal"
// in /proc/stat.  The benchmark reports each end-to-end metric over the
// calm part of a run, so it reads the program and not its neighbours.

/// CPU time of the whole machine in clock ticks since boot, from the "cpu"
/// line of /proc/stat: the ticks the hypervisor stole, and all ticks.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

/// Parses /proc/stat's text; zeros when it has no "cpu" line.
[[nodiscard]] HostTicks parse_host_ticks(std::string_view proc_stat);

/// The share of all ticks between two readings that were stolen; 0 when no
/// tick passed (or /proc/stat could not be read).
[[nodiscard]] double steal_share(const HostTicks& from, const HostTicks& to);

/// Indices, in time order, of the intervals (time slices or set-ups) whose
/// steal share is at most `max_share`.  When fewer than `min_count` are,
/// the `min_count` with the least steal instead (the earlier on ties).
[[nodiscard]] std::vector<std::size_t> calm_indices(
    const std::vector<double>& steal, double max_share,
    std::size_t min_count);

/// Fixed-size seeded sample (reservoir sampling): the slot in
/// [0, capacity) that the `seen`-th candidate (from 0) of `client` takes,
/// or `capacity` when it is not kept.  The first `capacity` candidates fill
/// the slots in order; each later one replaces a slot with probability
/// capacity / (seen + 1).  The sample stays uniform over everything the
/// client ran, in memory that does not grow with throughput.
[[nodiscard]] std::size_t reservoir_slot(std::uint64_t seed,
                                         std::size_t client, std::size_t seen,
                                         std::size_t capacity);

// --- generated workloads -------------------------------------------------

/// plan-hot's working set: key k of the hot set (same family of configs as
/// plan-cold, drawn from the hot stream).
[[nodiscard]] mlcr::svc::PlanRequest hot_request(std::uint64_t seed,
                                                 std::size_t key);

/// plan-cold: request `index` of client `client`; never repeats.
/// 1-4 levels, constant or linear costs, Te 1e3-1e7 core-days, rates over
/// two decades, N* 1e3-1e6, all four families weighted toward ML(opt-scale).
[[nodiscard]] mlcr::svc::PlanRequest cold_request(std::uint64_t seed,
                                                  std::uint64_t stream,
                                                  std::size_t client,
                                                  std::size_t index);

/// Every kDesEvery-th validate request of a client runs the DES backend.
inline constexpr std::size_t kDesEvery = 8;
inline constexpr int kCoarseRuns = 1000;
inline constexpr int kDesRuns = 8;

/// validate: fusion-scale configs (Te 10-100 core-days, N* 256-4096, the six
/// paper failure cases, four families), a unique replica seed per request.
[[nodiscard]] mlcr::svc::SimRequest validate_request(std::uint64_t seed,
                                                     std::uint64_t stream,
                                                     std::size_t client,
                                                     std::size_t index);

/// One ingest stream: hourly on-schedule batches whose L1 rate doubles and
/// halves back every `phase_batches` batches, so drift (and the re-plan it
/// triggers) happens only around phase switches.
struct IngestStream {
  mlcr::svc::PlanRequest base;
  double observed_scale = 0.0;
  std::vector<double> intervals;  ///< planned seconds between events
  std::size_t phase_batches = 1;

  [[nodiscard]] mlcr::ctrl::IngestRequest batch(std::size_t b) const;
};

/// Hourly batches of several hundred events on a 4-level exascale stream.
[[nodiscard]] IngestStream ingest_stream(std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::size_t index,
                                         std::size_t phase_batches);

// --- spans ---------------------------------------------------------------

enum class SpanName : std::uint16_t {
  kClientRequest,   ///< one closed-loop operation as the client sees it
  kReplayRequest,   ///< one request replayed through the layers in-process
  kNetRequestEncode,
  kNetRoundTrip,    ///< write + wait for the response frame
  kNetRequestDecode,
  kNetResponseEncode,
  kNetResponseDecode,
  kNetPushEncode,
  kNetPushDecode,
  kSvcCanonicalKey,
  kSvcCacheProbe,
  kOptPlan,
  kSimRun,
  kCtrlFold,
  kCtrlCommit,
  kCount,
};

[[nodiscard]] const char* to_string(SpanName name);
/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string layer_of(SpanName name);

struct Span {
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::uint32_t parent = 0;   ///< index + 1 of the parent in the same log
  SpanName name = SpanName::kCount;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends.
class SpanLog {
 public:
  /// Opens a span now; returns its handle (index + 1), usable as a parent.
  std::uint32_t open(SpanName name, std::uint64_t request,
                     std::uint32_t parent = 0);
  void close(std::uint32_t handle);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, SpanName name, std::uint64_t request,
        std::uint32_t parent = 0)
      : log_(log), handle_(log.open(name, request, parent)) {}
  ~Scope() { log_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t handle() const noexcept { return handle_; }

 private:
  SpanLog& log_;
  std::uint32_t handle_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Appends the spans `keep` accepts as tab-separated lines (thread, index,
/// parent, name, request, start_ns, end_ns) to `out`.
void append_spans(std::string* out, std::size_t thread,
                  const std::vector<Span>& spans,
                  const std::function<bool(const Span&)>& keep = nullptr);

// --- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

/// Human-readable metric lines followed by the one-line JSON result:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
[[nodiscard]] std::string render_result(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed,
                                        const std::vector<Metric>& metrics);

}  // namespace perfbench
