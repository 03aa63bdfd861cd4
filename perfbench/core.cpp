#include "core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "exp/cases.h"
#include "model/overhead.h"
#include "svc/system_config_builder.h"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr double kDay = 86400.0;

const std::vector<mlcr::exp::FailureCase>& paper_cases() {
  static const auto cases = mlcr::exp::paper_failure_cases();
  return cases;
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
                  std::uint64_t b) {
  return splitmix(splitmix(splitmix(splitmix(seed) ^ stream) ^ a) ^ b);
}

std::uint64_t Draw::bits() {
  state_ = splitmix(state_);
  return state_;
}

double Draw::uniform() {
  return static_cast<double>(bits() >> 11) * 0x1.0p-53;
}

double Draw::log_uniform(double lo, double hi) {
  return std::exp(std::log(lo) + uniform() * (std::log(hi) - std::log(lo)));
}

std::size_t Draw::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  if (!cdf_.empty()) cdf_.back() = 1.0;
}

std::size_t Zipf::sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

double Zipf::probability(std::size_t k) const {
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t slice_of(double t, double window_s, std::size_t slices) {
  const std::size_t n = std::max<std::size_t>(1, slices);
  const double width = window_s / static_cast<double>(n);
  const double k = width > 0.0 ? std::floor(t / width) : 0.0;
  return static_cast<std::size_t>(
      std::clamp(k, 0.0, static_cast<double>(n - 1)));
}

namespace {

constexpr std::size_t kFiniteBuckets =
    static_cast<std::size_t>(Histogram::kMaxExp - Histogram::kMinExp + 1) *
    Histogram::kSubBuckets;

}  // namespace

Histogram::Histogram() : buckets_(kFiniteBuckets + 1) {}

void Histogram::add(double ms) {
  std::size_t bucket = kFiniteBuckets;  // failures: above every finite bucket
  if (std::isfinite(ms)) {
    int exp = 0;
    const double mantissa = std::frexp(ms, &exp);  // ms = mantissa * 2^exp
    if (ms <= 0.0 || exp < kMinExp) {
      bucket = 0;
    } else if (exp > kMaxExp) {
      bucket = kFiniteBuckets - 1;
    } else {
      const auto sub = static_cast<std::size_t>((2.0 * mantissa - 1.0) *
                                                kSubBuckets);
      bucket = static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
               std::min<std::size_t>(sub, kSubBuckets - 1);
    }
  }
  ++buckets_[bucket];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t below = 0;  // samples in the buckets before b
  std::size_t b = 0;
  for (; b < kFiniteBuckets; ++b) {
    if (below + buckets_[b] >= rank) break;
    below += buckets_[b];
  }
  if (b == kFiniteBuckets) return std::numeric_limits<double>::infinity();
  // The bucket's samples taken as spread evenly over it.
  const int exp = static_cast<int>(b / kSubBuckets) + kMinExp;
  const double sub = static_cast<double>(b % kSubBuckets);
  const double within = (static_cast<double>(rank - below) - 0.5) /
                        static_cast<double>(buckets_[b]);
  return std::ldexp(0.5 + (sub + within) / (2.0 * kSubBuckets), exp);
}

std::vector<Histogram> merge_groups(const std::vector<Histogram>& slices,
                                    std::size_t per_group) {
  std::uint64_t total = 0;
  for (const Histogram& h : slices) total += h.count();
  const std::size_t n = slices.size();
  std::size_t groups = 1;
  if (total > 0 && n > 0) {
    // Slices per group, so that a group of average slices holds per_group.
    const std::uint64_t per = (per_group * n + total - 1) / total;
    groups = std::max<std::size_t>(1, n / std::max<std::uint64_t>(1, per));
  }
  std::vector<Histogram> out(groups);
  for (std::size_t k = 0; k < n; ++k) out[k * groups / n].merge(slices[k]);
  return out;
}

HostTicks parse_host_ticks(std::string_view proc_stat) {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user, so the total stops at steal.
  if (proc_stat.substr(0, 4) != "cpu ") return {};
  const std::string line(proc_stat.substr(0, proc_stat.find('\n')));
  unsigned long long ticks[8] = {};
  if (std::sscanf(line.c_str(), "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &ticks[0], &ticks[1], &ticks[2], &ticks[3], &ticks[4],
                  &ticks[5], &ticks[6], &ticks[7]) != 8) {
    return {};
  }
  HostTicks out;
  for (const unsigned long long t : ticks) {
    out.total += static_cast<double>(t);
  }
  out.steal = static_cast<double>(ticks[7]);
  return out;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<std::size_t> calm_indices(const std::vector<double>& steal,
                                      double max_share,
                                      std::size_t min_count) {
  std::vector<std::size_t> calm;
  for (std::size_t k = 0; k < steal.size(); ++k) {
    if (steal[k] <= max_share) calm.push_back(k);
  }
  if (calm.size() >= min_count) return calm;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  order.resize(std::min(min_count, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::size_t reservoir_slot(std::uint64_t seed, std::size_t client,
                           std::size_t seen, std::size_t capacity) {
  if (seen < capacity) return seen;
  const std::size_t slot = Draw(seed, kSampleStream, client, seen).below(
      seen + 1);
  return slot < capacity ? slot : capacity;
}

namespace {

mlcr::svc::PlanRequest generated_plan(Draw draw, const char* label) {
  using mlcr::model::Overhead;
  const std::size_t levels = 1 + draw.below(4);
  const double te = draw.log_uniform(1e3, 1e7);
  const double n_star = draw.log_uniform(1e3, 1e6);
  const double rate_factor = draw.log_uniform(0.05, 5.0);
  const bool linear = draw.uniform() < 0.5;
  const double base_cost = draw.log_uniform(0.5, 2.0);
  const double alpha = draw.log_uniform(2e-3, 2e-2);
  const double pick = draw.uniform();

  static constexpr double kPattern[4] = {16.0, 12.0, 8.0, 4.0};
  mlcr::svc::SystemConfigBuilder builder;
  builder.te_core_days(te).quadratic_speedup(0.46, n_star).allocation_seconds(
      60.0);
  std::vector<double> per_day;
  double cost = base_cost;
  for (std::size_t i = 0; i < levels; ++i) {
    per_day.push_back(kPattern[i] * rate_factor);
    const bool top = i + 1 == levels;
    builder.add_level(top && linear ? Overhead::linear(cost, alpha)
                                    : Overhead::constant(cost),
                      Overhead::constant(cost));
    cost *= 2.2;
  }
  builder.failure_rates_per_day(per_day, n_star);

  mlcr::opt::Solution solution = mlcr::opt::Solution::kMultilevelOptScale;
  if (pick >= 0.55) {
    solution = pick < 0.70   ? mlcr::opt::Solution::kSingleLevelOptScale
               : pick < 0.85 ? mlcr::opt::Solution::kMultilevelOriScale
                             : mlcr::opt::Solution::kSingleLevelOriScale;
  }
  return {builder.build(), solution, {}, label};
}

}  // namespace

mlcr::svc::PlanRequest cold_request(std::uint64_t seed, std::uint64_t stream,
                                    std::size_t client, std::size_t index) {
  return generated_plan(Draw(seed, stream, client, index), "c");
}

mlcr::svc::PlanRequest hot_request(std::uint64_t seed, std::size_t key) {
  return generated_plan(Draw(seed, kHotStream, 0, key), "h");
}

mlcr::svc::SimRequest validate_request(std::uint64_t seed,
                                       std::uint64_t stream,
                                       std::size_t client,
                                       std::size_t index) {
  // Stratified over (failure case, family, Te half): each client walks the
  // 48 strata in turn, DES and coarse requests separately, so every run
  // sees the same mix and only the jitter inside a stratum depends on the
  // seed.  The DES tail (latency_p99_ms) is what needs this.
  const bool des = index % kDesEvery == kDesEvery - 1;
  const std::size_t ordinal =
      des ? index / kDesEvery : index - (index + 1) / kDesEvery;
  const std::size_t stratum = (ordinal + 11 * client) % 48;
  const auto& cases = paper_cases();
  const auto& failure_case = cases[stratum % cases.size()];
  const auto solutions = mlcr::opt::all_solutions();
  const auto solution = solutions[(stratum / 6) % solutions.size()];
  const double te_split = std::sqrt(10.0 * 100.0);
  Draw draw(seed, stream, client, index);
  const double te = stratum < 24 ? draw.log_uniform(10.0, te_split)
                                 : draw.log_uniform(te_split, 100.0);
  const double n_star = draw.log_uniform(256.0, 4096.0);
  std::uint64_t replica_seed = draw.bits();
  if (replica_seed == mlcr::sim::kSeedSentinel) replica_seed ^= 1;

  mlcr::sim::MonteCarloOptions monte_carlo;
  monte_carlo.runs = des ? kDesRuns : kCoarseRuns;
  monte_carlo.seed = replica_seed;
  mlcr::svc::SimRequest request{
      .config = mlcr::exp::make_fti_system(te, failure_case, n_star),
      .solution = solution,
      .plan_options = {},
      .monte_carlo = monte_carlo,
      .backend = des ? mlcr::svc::SimBackend::kDes
                     : mlcr::svc::SimBackend::kCoarse,
      .label = "v"};
  return request;
}

mlcr::ctrl::IngestRequest IngestStream::batch(std::size_t b) const {
  const double start = 3600.0 * static_cast<double>(b);
  const double end = start + 3600.0;
  const bool doubled = (b / phase_batches) % 2 == 1;
  mlcr::ctrl::IngestRequest request(base);
  for (std::size_t level = 0; level < intervals.size(); ++level) {
    const double interval =
        level == 0 && doubled ? intervals[level] / 2.0 : intervals[level];
    std::vector<double> arrivals;
    for (double k = std::floor(start / interval) + 1.0; k * interval <= end;
         k += 1.0) {
      arrivals.push_back(k * interval);
    }
    request.trace.arrivals_per_level.push_back(std::move(arrivals));
  }
  request.observed_seconds = end;
  request.observed_scale = observed_scale;
  return request;
}

IngestStream ingest_stream(std::uint64_t seed, std::uint64_t stream,
                           std::size_t index, std::size_t phase_batches) {
  Draw draw(seed, stream, index);
  const double te = draw.log_uniform(1e5, 1e6);
  const double n_star = draw.log_uniform(1e5, 1e6);
  // Events are observed on 400x the planned baseline scale, so an hour of
  // observation carries several hundred events while the planned system
  // keeps the paper's 16-12-8-4-like per-day rates.
  constexpr double kObservedMultiple = 400.0;
  std::vector<double> intervals = {14.0, 18.0, 27.0, 54.0};
  std::vector<double> per_day;
  for (const double interval : intervals) {
    per_day.push_back(kDay / (interval * kObservedMultiple));
  }
  mlcr::svc::SystemConfigBuilder builder;
  builder.te_core_days(te)
      .quadratic_speedup(0.46, n_star)
      .levels(mlcr::exp::fti_level_overheads())
      .failure_rates_per_day(per_day, n_star)
      .allocation_seconds(60.0);
  return {{builder.build(), mlcr::opt::Solution::kMultilevelOptScale, {}, "i"},
          n_star * kObservedMultiple,
          std::move(intervals),
          phase_batches};
}

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kClientRequest: return "client.request";
    case SpanName::kReplayRequest: return "replay.request";
    case SpanName::kNetRequestEncode: return "net.request_encode";
    case SpanName::kNetRoundTrip: return "net.round_trip";
    case SpanName::kNetRequestDecode: return "net.request_decode";
    case SpanName::kNetResponseEncode: return "net.response_encode";
    case SpanName::kNetResponseDecode: return "net.response_decode";
    case SpanName::kNetPushEncode: return "net.push_encode";
    case SpanName::kNetPushDecode: return "net.push_decode";
    case SpanName::kSvcCanonicalKey: return "svc.canonical_key";
    case SpanName::kSvcCacheProbe: return "svc.cache_probe";
    case SpanName::kOptPlan: return "opt.plan";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kCtrlFold: return "ctrl.fold";
    case SpanName::kCtrlCommit: return "ctrl.commit";
    case SpanName::kCount: break;
  }
  return "?";
}

std::string layer_of(SpanName name) {
  const std::string_view full = to_string(name);
  return std::string(full.substr(0, full.find('.')));
}

std::uint32_t SpanLog::open(SpanName name, std::uint64_t request,
                            std::uint32_t parent) {
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::close(std::uint32_t handle) {
  spans_[handle - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= spans.size()) {
      children[parent - 1].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

void append_spans(std::string* out, std::size_t thread,
                  const std::vector<Span>& spans,
                  const std::function<bool(const Span&)>& keep) {
  char line[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (keep && !keep(s)) continue;
    const int n = std::snprintf(
        line, sizeof(line), "%zu\t%zu\t%u\t%s\t%llu\t%lld\t%lld\n", thread,
        i + 1, s.parent, to_string(s.name),
        static_cast<unsigned long long>(s.request),
        static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    out->append(line, static_cast<std::size_t>(n));
  }
}

namespace {

std::string json_number(double value) {
  // JSON has no infinity; a failed operation's infinite latency is
  // rendered as 1e12 (the run is reported incorrect anyway).
  if (!std::isfinite(value)) value = 1e12;
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

std::string render_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics) {
  std::string out;
  char line[256];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof(line), "  %-36s %16.6f %-6s (n=%zu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out += line;
  }
  out += "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}\n";
  return out;
}

}  // namespace perfbench
