// Tests of the benchmark's pure pieces: seeded request generation,
// the Zipf sampler, the percentile rule and its fixed-memory histogram,
// time slicing and the choice of calm slices by steal time, the reservoir
// sample and the self-time reduction.
// Self-contained (no test framework), so the benchmark builds from src/
// alone; exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core.h"
#include "net/protocol.h"
#include "sim/trace_io.h"

namespace {

int failures = 0;

void expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "test_core.cpp:%d: expectation failed: %s\n", line,
                 what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void seeds_reproduce_request_lines() {
  for (std::size_t i = 0; i < 50; ++i) {
    const std::string a =
        mlcr::net::encode_request_line(cold_request(7, kColdStream, 2, i));
    const std::string b =
        mlcr::net::encode_request_line(cold_request(7, kColdStream, 2, i));
    EXPECT(a == b);
    EXPECT(a != mlcr::net::encode_request_line(
                    cold_request(8, kColdStream, 2, i)));
    EXPECT(a != mlcr::net::encode_request_line(
                    cold_request(7, kColdStream, 3, i)));
    const std::string v = mlcr::net::encode_sim_request_line(
        validate_request(7, kValidateStream, 1, i));
    EXPECT(v == mlcr::net::encode_sim_request_line(
                    validate_request(7, kValidateStream, 1, i)));
    EXPECT(mlcr::net::encode_request_line(hot_request(7, i)) ==
           mlcr::net::encode_request_line(hot_request(7, i)));
  }
  // Every kDesEvery-th validate request runs DES with its own replica count.
  for (std::size_t i = 0; i < 16; ++i) {
    const auto request = validate_request(3, kValidateStream, 0, i);
    const bool des = request.backend == mlcr::svc::SimBackend::kDes;
    EXPECT(des == (i % kDesEvery == kDesEvery - 1));
    EXPECT(request.monte_carlo.runs == (des ? kDesRuns : kCoarseRuns));
  }
  const IngestStream stream = ingest_stream(5, kIngestStream, 0, 10);
  const IngestStream again = ingest_stream(5, kIngestStream, 0, 10);
  for (std::size_t b = 0; b < 25; ++b) {
    const std::string line =
        mlcr::net::encode_ingest_request_line(stream.batch(b));
    EXPECT(line == mlcr::net::encode_ingest_request_line(again.batch(b)));
  }
}

void ingest_batches_switch_phase() {
  const IngestStream stream = ingest_stream(11, kIngestStream, 1, 10);
  const auto base = stream.batch(9);
  const auto doubled = stream.batch(10);
  EXPECT(base.trace.arrivals_per_level[0].size() * 2 ==
             doubled.trace.arrivals_per_level[0].size() ||
         base.trace.arrivals_per_level[0].size() * 2 + 1 ==
             doubled.trace.arrivals_per_level[0].size());
  EXPECT(base.trace.arrivals_per_level[1].size() ==
         doubled.trace.arrivals_per_level[1].size());
  std::size_t events = 0;
  for (const auto& level : base.trace.arrivals_per_level) {
    events += level.size();
    for (std::size_t k = 0; k < level.size(); ++k) {
      EXPECT(level[k] > 9 * 3600.0 && level[k] <= 10 * 3600.0);
      if (k > 0) EXPECT(level[k] > level[k - 1]);
    }
  }
  EXPECT(events >= 300 && events <= 1000);
  // The text the daemon parses round-trips to the same events.
  const std::string text = mlcr::sim::trace_to_string(base.trace);
  EXPECT(mlcr::sim::trace_from_string(text, 4).arrivals_per_level ==
         base.trace.arrivals_per_level);
}

void zipf_sampler() {
  const Zipf zipf(1000, 1.0);
  EXPECT(zipf.size() == 1000);
  EXPECT(zipf.sample(0.0) == 0);
  EXPECT(zipf.sample(std::nextafter(1.0, 0.0)) == 999);
  double total = 0.0;
  for (std::size_t k = 0; k < 1000; ++k) {
    total += zipf.probability(k);
    if (k > 0) EXPECT(zipf.probability(k) < zipf.probability(k - 1));
  }
  EXPECT(std::abs(total - 1.0) < 1e-12);
  // Rank 0 vs rank 9 is 10:1 at s = 1.
  EXPECT(std::abs(zipf.probability(0) / zipf.probability(9) - 10.0) < 1e-9);
  std::vector<std::size_t> counts(1000);
  constexpr std::size_t kDraws = 200000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    ++counts[zipf.sample(Draw(1, kHotPick, 0, i).uniform())];
  }
  for (const std::size_t k : {0u, 1u, 9u, 99u}) {
    const double expected = zipf.probability(k) * kDraws;
    EXPECT(std::abs(static_cast<double>(counts[k]) - expected) <
           5.0 * std::sqrt(expected) + 1.0);
  }
  EXPECT(Draw(1, 2, 3, 4).uniform() == Draw(1, 2, 3, 4).uniform());
  EXPECT(Draw(1, 2, 3, 4).uniform() != Draw(1, 2, 3, 5).uniform());
}

void percentile_rule() {
  EXPECT(percentile({}, 0.5) == 0.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT(percentile(hundred, 0.50) == 50.0);
  EXPECT(percentile(hundred, 0.99) == 99.0);
  EXPECT(percentile(hundred, 1.00) == 100.0);
  EXPECT(percentile({4.0}, 0.99) == 4.0);
  // A failed operation counts as infinitely slow.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> with_failures(98, 1.0);
  with_failures.push_back(inf);
  with_failures.push_back(inf);
  EXPECT(percentile(with_failures, 0.50) == 1.0);
  EXPECT(std::isinf(percentile(with_failures, 0.99)));
  EXPECT(mean({1.0, 2.0, 6.0}) == 3.0);
}

void slices_and_medians() {
  EXPECT(median({}) == 0.0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  // Window of 10 s in 5 slices of 2 s; completions past the end fall in
  // the last slice.
  EXPECT(slice_of(0.0, 10.0, 5) == 0);
  EXPECT(slice_of(1.9, 10.0, 5) == 0);
  EXPECT(slice_of(2.0, 10.0, 5) == 1);
  EXPECT(slice_of(5.5, 10.0, 5) == 2);
  EXPECT(slice_of(9.99, 10.0, 5) == 4);
  EXPECT(slice_of(12.0, 10.0, 5) == 4);
  EXPECT(slice_of(3.0, 10.0, 0) == 0);
}

void histogram_quantiles() {
  // Quantiles read within a bucket of the exact nearest-rank sample.
  const double tolerance = 1.0 / Histogram::kSubBuckets;
  Histogram h;
  EXPECT(h.quantile(0.5) == 0.0);
  std::vector<double> samples;
  for (std::size_t i = 0; i < 5000; ++i) {
    samples.push_back(Draw(4, 9, 0, i).log_uniform(0.01, 500.0));
    h.add(samples.back());
  }
  EXPECT(h.count() == 5000);
  for (const double q : {0.01, 0.5, 0.95, 0.99, 1.0}) {
    const double exact = percentile(samples, q);
    EXPECT(std::abs(h.quantile(q) - exact) <= tolerance * exact);
  }
  // A failed operation counts as infinitely slow, as in percentile().
  Histogram with_failures;
  for (int i = 0; i < 98; ++i) with_failures.add(1.0);
  const double inf = std::numeric_limits<double>::infinity();
  with_failures.add(inf);
  with_failures.add(inf);
  EXPECT(std::abs(with_failures.quantile(0.5) - 1.0) <= tolerance);
  EXPECT(std::isinf(with_failures.quantile(0.99)));
  // Values outside the range land in the end buckets.
  Histogram edges;
  edges.add(0.0);
  edges.add(1e9);
  EXPECT(edges.quantile(0.5) < 1e-3);
  EXPECT(std::isfinite(edges.quantile(1.0)) && edges.quantile(1.0) > 1e5);
  // Merging adds counts.
  Histogram merged;
  merged.merge(h);
  merged.merge(with_failures);
  EXPECT(merged.count() == 5100);

  // merge_groups: the most groups of equal slice counts with enough
  // samples.
  std::vector<Histogram> slices(10);
  for (std::size_t k = 0; k < 10; ++k) {
    for (int i = 0; i < 30; ++i) slices[k].add(1.0 + static_cast<double>(k));
  }
  EXPECT(merge_groups(slices, 1).size() == 10);
  EXPECT(merge_groups(slices, 30).size() == 10);
  EXPECT(merge_groups(slices, 31).size() == 5);
  EXPECT(merge_groups(slices, 100).size() == 2);
  EXPECT(merge_groups(slices, 1000).size() == 1);
  const auto pairs = merge_groups(slices, 60);
  EXPECT(pairs.size() == 5 && pairs[0].count() == 60);
  EXPECT(std::abs(pairs[4].quantile(1.0) - 10.0) <= 10.0 * tolerance);
  // A slice count with no useful divisor (the calm slices of a window)
  // still splits into groups of two or three slices.
  slices.resize(7);
  const auto uneven = merge_groups(slices, 60);
  EXPECT(uneven.size() == 3);
  EXPECT(uneven[0].count() == 90 && uneven[1].count() == 60 &&
         uneven[2].count() == 60);
  EXPECT(merge_groups({}, 60).size() == 1);
}

void reservoir_sample() {
  constexpr std::size_t kCapacity = 8;
  // The first candidates fill the slots in order; later ones replace a
  // slot with probability capacity / (seen + 1), the same for a seed.
  for (std::size_t seen = 0; seen < kCapacity; ++seen) {
    EXPECT(reservoir_slot(1, 0, seen, kCapacity) == seen);
  }
  std::size_t kept = 0;
  constexpr std::size_t kCandidates = 20000;
  for (std::size_t seen = kCapacity; seen < kCandidates; ++seen) {
    const std::size_t slot = reservoir_slot(1, 0, seen, kCapacity);
    EXPECT(slot <= kCapacity);
    EXPECT(slot == reservoir_slot(1, 0, seen, kCapacity));
    kept += slot < kCapacity ? 1 : 0;
  }
  // Expected replacements: sum of capacity / (seen + 1) ~ 8 ln(2500) ~ 62.6.
  EXPECT(kept > 35 && kept < 95);
  // Uniform over every candidate: each ends up kept with probability
  // capacity / kCandidates, so the kept indices spread over the sequence.
  std::size_t late = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::vector<std::size_t> slots(kCapacity);
    for (std::size_t seen = 0; seen < 1000; ++seen) {
      const std::size_t slot = reservoir_slot(seed, 3, seen, kCapacity);
      if (slot < kCapacity) slots[slot] = seen;
    }
    for (const std::size_t index : slots) late += index >= 500 ? 1 : 0;
  }
  // Half of the 1600 kept indices should be from the second half.
  EXPECT(late > 700 && late < 900);
}

void self_time_reduction() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // [10,50) = 40) and [60,70); the first child has a grandchild [12,18).
  std::vector<Span> spans(5);
  spans[0] = {1, 0, SpanName::kReplayRequest, 0, 100};
  spans[1] = {1, 1, SpanName::kNetRequestEncode, 10, 30};
  spans[2] = {1, 1, SpanName::kNetRequestDecode, 20, 50};
  spans[3] = {1, 1, SpanName::kOptPlan, 60, 70};
  spans[4] = {1, 2, SpanName::kSvcCanonicalKey, 12, 18};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 6);
  // A child reaching outside its parent only covers the overlap.
  std::vector<Span> clipped(2);
  clipped[0] = {2, 0, SpanName::kClientRequest, 0, 10};
  clipped[1] = {2, 1, SpanName::kNetRoundTrip, 5, 20};
  EXPECT(self_times(clipped)[0] == 5);
  EXPECT(layer_of(SpanName::kOptPlan) == "opt");
  EXPECT(layer_of(SpanName::kNetRoundTrip) == "net");

  SpanLog log;
  {
    Scope root(log, SpanName::kReplayRequest, 9);
    Scope child(log, SpanName::kCtrlFold, 9, root.handle());
  }
  EXPECT(log.spans().size() == 2);
  EXPECT(log.spans()[1].parent == 1);
  EXPECT(log.spans()[0].end_ns >= log.spans()[1].end_ns);
  std::string text;
  append_spans(&text, 3, log.spans());
  EXPECT(text.find("\tctrl.fold\t9\t") != std::string::npos);
}

void result_line() {
  const std::string out = render_result(
      true, 1200, 0, {{"latency_ms", 1.25, "ms", 1200}, {"x", 2.0, "s", 1}});
  EXPECT(out.find("{\"correct\": true, \"attempted\": 1200, \"failed\": 0, "
                  "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
                  "\"unit\": \"ms\"}, \"x\": {\"value\": 2, \"unit\": "
                  "\"s\"}}}\n") != std::string::npos);
  EXPECT(out.back() == '\n');
}

void calm_slices_by_steal() {
  const HostTicks a = parse_host_ticks(
      "cpu  100 5 50 800 10 1 2 32 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n");
  EXPECT(a.total == 1000.0);
  EXPECT(a.steal == 32.0);
  const HostTicks b = parse_host_ticks("cpu  150 5 70 1000 10 1 2 62 9 0\n");
  EXPECT(b.total == 1300.0);  // guest time is part of user already
  EXPECT(std::fabs(steal_share(a, b) - 0.1) < 1e-12);
  EXPECT(steal_share(a, a) == 0.0);
  EXPECT(parse_host_ticks("").total == 0.0);
  EXPECT(parse_host_ticks("intr 1 2 3\n").total == 0.0);
  EXPECT(parse_host_ticks("cpu  1 2 3\n").total == 0.0);
  // Unreadable: every reading is zero, every interval calm.
  EXPECT(steal_share(HostTicks{}, HostTicks{}) == 0.0);

  const std::vector<double> steal = {0.01, 0.30, 0.05, 0.06, 0.0, 0.20};
  EXPECT((calm_indices(steal, 0.05, 3) == std::vector<std::size_t>{0, 2, 4}));
  EXPECT((calm_indices(steal, 0.05, 2) == std::vector<std::size_t>{0, 2, 4}));
  // Too few calm ones: the least stolen, in time order.
  EXPECT((calm_indices(steal, 0.05, 4) ==
          std::vector<std::size_t>{0, 2, 3, 4}));
  EXPECT((calm_indices(steal, 0.0, 2) == std::vector<std::size_t>{0, 4}));
  // Ties go to the earlier interval.
  EXPECT((calm_indices({0.3, 0.2, 0.2, 0.2}, 0.05, 2) ==
          std::vector<std::size_t>{1, 2}));
  EXPECT((calm_indices({0.3, 0.2}, 0.05, 5) ==
          std::vector<std::size_t>{0, 1}));
  EXPECT(calm_indices({}, 0.05, 3).empty());
}

}  // namespace

int main() {
  seeds_reproduce_request_lines();
  ingest_batches_switch_phase();
  zipf_sampler();
  percentile_rule();
  slices_and_medians();
  calm_slices_by_steal();
  histogram_quantiles();
  reservoir_sample();
  self_time_reduction();
  result_line();
  if (failures == 0) std::printf("test_core: all expectations passed\n");
  return failures == 0 ? 0 : 1;
}
