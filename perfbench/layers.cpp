// The traced run's per-layer numbers.  Three sources:
//   * the replay: the traced window's own requests (a fixed prefix per
//     client) called through each layer's public functions in-process, on
//     one thread, one span per call -> self times, layer shares, bytes;
//   * the layer survey: fixed seeded samples from the generator that loads
//     each layer (opt <- plan-cold, sim <- validate, ctrl <- an ingest
//     stream like the push probe's), replayed the same way in every traced
//     run, so a layer's cost reads the same whichever workload is traced;
//   * the daemon's counter deltas over the traced window, and micro-costs
//     of common instruments.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "net/json.h"
#include "net/protocol.h"
#include "opt/planner.h"
#include "sim/backend.h"
#include "sim/trace_io.h"
#include "svc/sweep_engine.h"

namespace perfbench {

namespace net = mlcr::net;
namespace svc = mlcr::svc;
namespace ctrl = mlcr::ctrl;
namespace sim = mlcr::sim;

namespace {

using Clock = std::chrono::steady_clock;

/// Requests per client the replay covers (validate: kDesEvery, so each
/// client's replay holds the workload's coarse-to-DES mix).
std::size_t replay_prefix(Workload workload) {
  switch (workload) {
    case Workload::kPlanHot: return 500;
    case Workload::kPlanCold: return 250;
    case Workload::kValidate: return kDesEvery;
  }
  return 0;
}

constexpr std::size_t kSurveyPlans = 400;
constexpr std::size_t kSurveyValidates = 32;
constexpr std::size_t kSurveyBatches = 200;

double us_of(const Span& span) {
  return 1e-3 * static_cast<double>(span.end_ns - span.start_ns);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What one replay collected besides its spans.
struct Replay {
  SpanLog log;
  std::vector<std::uint64_t> requests;
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  // opt
  std::vector<double> solve_us;
  std::vector<double> outer;
  std::vector<double> inner;
  std::size_t not_ok = 0;
  // sim
  double coarse_us = 0.0, coarse_replicas = 0.0;
  double des_us = 0.0, des_replicas = 0.0;
  double commits = 0.0, failures = 0.0, replicas = 0.0, incomplete = 0.0;
  // ctrl
  std::vector<double> fold_us, commit_us, read_trace_us;
  double events = 0.0;
  std::size_t batches = 0, replans = 0;
};

/// opt::plan on `request` in an opt.plan span, with its counts recorded;
/// returns the planner's result (default-constructed if it threw).
mlcr::opt::PlannerResult timed_solve(Replay& replay,
                                     const svc::PlanRequest& request,
                                     std::uint64_t rid, std::uint32_t parent) {
  mlcr::opt::PlannerResult planned;
  bool ok = false;
  const std::uint32_t h = replay.log.open(SpanName::kOptPlan, rid, parent);
  try {
    planned = mlcr::opt::plan(request.solution, request.config,
                              request.options);
    ok = planned.optimization.status == mlcr::opt::Status::kOk;
  } catch (...) {
  }
  replay.log.close(h);
  replay.solve_us.push_back(us_of(replay.log.spans()[h - 1]));
  replay.outer.push_back(planned.optimization.outer_iterations);
  replay.inner.push_back(planned.optimization.inner_iterations);
  if (!ok) ++replay.not_ok;
  return planned;
}

/// Response line lengths with the timing fields zeroed, as
/// net::deterministic_fingerprint zeroes them, so they repeat exactly.
double response_bytes(svc::PlanReport report) {
  report.solve_seconds = 0.0;
  report.queue_wait_seconds = 0.0;
  report.cache_hit = false;
  return static_cast<double>(net::encode_report_line(report).size());
}

double response_bytes(svc::SimReport report) {
  report.sim_seconds = 0.0;
  report.cache_hit = false;
  report.plan.solve_seconds = 0.0;
  report.plan.queue_wait_seconds = 0.0;
  report.plan.cache_hit = false;
  return static_cast<double>(net::encode_sim_report_line(report).size());
}

template <class T>
T decode_or_throw(std::optional<T> value, const std::string& error) {
  if (!value.has_value()) {
    throw std::runtime_error("perfbench: replay decode failed: " + error);
  }
  return std::move(*value);
}

void replay_plan(Replay& replay, svc::SweepEngine& engine,
                 const svc::PlanRequest& request, std::uint64_t rid) {
  SpanLog& log = replay.log;
  Scope root(log, SpanName::kReplayRequest, rid);
  const std::uint32_t r = root.handle();
  std::string line;
  {
    Scope span(log, SpanName::kNetRequestEncode, rid, r);
    line = net::encode_request_line(request);
  }
  std::optional<svc::PlanRequest> decoded;
  std::string error;
  {
    Scope span(log, SpanName::kNetRequestDecode, rid, r);
    const auto envelope = net::json::parse(line, &error);
    long deadline_ms = 0;
    if (envelope) decoded = net::decode_request(*envelope, &deadline_ms, &error);
  }
  const svc::PlanRequest req = decode_or_throw(std::move(decoded), error);
  std::string key;
  {
    Scope span(log, SpanName::kSvcCanonicalKey, rid, r);
    key = svc::canonical_key(req);
  }
  bool hit = false;
  {
    svc::PlanReport cached;
    Scope span(log, SpanName::kSvcCacheProbe, rid, r);
    hit = engine.try_cached_plan(key, &cached);
  }
  if (!hit) (void)timed_solve(replay, req, rid, r);
  // The report the daemon answers with comes from the program's own
  // plan_one, outside the layer spans: the solve was timed above.
  const svc::PlanReport report = *engine.plan_one(req);
  std::string out;
  {
    Scope span(log, SpanName::kNetResponseEncode, rid, r);
    out = net::encode_report_line(report);
  }
  {
    Scope span(log, SpanName::kNetResponseDecode, rid, r);
    net::Response response;
    if (!net::decode_response(out, &response, &error)) {
      throw std::runtime_error("perfbench: replay response decode failed");
    }
  }
  replay.requests.push_back(rid);
  replay.request_bytes.push_back(static_cast<double>(line.size()));
  replay.response_bytes.push_back(response_bytes(report));
}

const sim::Backend& backend_of(svc::SimBackend backend) {
  return backend == svc::SimBackend::kDes ? sim::des_backend()
                                          : sim::coarse_backend();
}

/// Checkpoints one replica commits under the plan: x_i - 1 per enabled
/// level (the run's end is not a checkpoint).
double plan_commits(const sim::Schedule& schedule,
                    const mlcr::model::Plan& plan) {
  double commits = 0.0;
  for (std::size_t i = 0; i < schedule.period_seconds.size(); ++i) {
    if (schedule.period_seconds[i] > 0.0 && i < plan.intervals.size()) {
      commits += std::max(0.0, std::round(plan.intervals[i]) - 1.0);
    }
  }
  return commits;
}

/// Coarse backend runs timed serially and again on a pool.
struct FanOut {
  mlcr::common::ThreadPool& pool;
  double serial_seconds = 0.0;
  double pool_seconds = 0.0;
};

/// Replays one validate request.  With `fanout`, coarse requests also run
/// on fanout->pool (untraced) for sim.fanout_speedup.  The response comes
/// from the engine's own validate_one, outside the layer spans.
void replay_validate(Replay& replay, svc::SweepEngine& engine,
                     const svc::SimRequest& request, std::uint64_t rid,
                     FanOut* fanout = nullptr) {
  SpanLog& log = replay.log;
  Scope root(log, SpanName::kReplayRequest, rid);
  const std::uint32_t r = root.handle();
  std::string line;
  {
    Scope span(log, SpanName::kNetRequestEncode, rid, r);
    line = net::encode_sim_request_line(request);
  }
  std::optional<svc::SimRequest> decoded;
  std::string error;
  {
    Scope span(log, SpanName::kNetRequestDecode, rid, r);
    const auto envelope = net::json::parse(line, &error);
    long deadline_ms = 0;
    if (envelope) {
      decoded = net::decode_sim_request(*envelope, &deadline_ms, &error);
    }
  }
  const svc::SimRequest req = decode_or_throw(std::move(decoded), error);
  std::string key;
  {
    Scope span(log, SpanName::kSvcCanonicalKey, rid, r);
    key = svc::canonical_key(req);
  }
  {
    svc::SimReport cached;
    Scope span(log, SpanName::kSvcCacheProbe, rid, r);
    (void)engine.try_cached_sim(key, &cached);
  }
  const svc::PlanRequest plan_request = req.plan_request();
  {
    Scope span(log, SpanName::kSvcCanonicalKey, rid, r);
    (void)svc::canonical_key(plan_request);
  }
  const mlcr::opt::PlannerResult planned =
      timed_solve(replay, plan_request, rid, r);
  if (planned.optimization.status == mlcr::opt::Status::kOk) {
    const sim::Schedule schedule = sim::Schedule::from_plan(
        req.config, planned.full_plan, planned.level_enabled);
    const sim::Backend& backend = backend_of(req.backend);
    const std::uint32_t h = log.open(SpanName::kSimRun, rid, r);
    const sim::MonteCarloResult mc =
        backend.run(req.config, schedule, req.monte_carlo, nullptr);
    log.close(h);
    const double us = us_of(log.spans()[h - 1]);
    const double runs = static_cast<double>(req.monte_carlo.runs);
    if (req.backend == svc::SimBackend::kDes) {
      replay.des_us += us;
      replay.des_replicas += runs;
    } else {
      replay.coarse_us += us;
      replay.coarse_replicas += runs;
      if (fanout != nullptr) {
        const auto start = Clock::now();
        (void)backend.run(req.config, schedule, req.monte_carlo,
                          &fanout->pool);
        fanout->pool_seconds += seconds_since(start);
        fanout->serial_seconds += 1e-6 * us;
      }
    }
    replay.commits += runs * plan_commits(schedule, planned.full_plan);
    replay.failures += runs * mc.failures.mean();
    replay.replicas += runs;
    replay.incomplete += static_cast<double>(mc.incomplete_runs);
  }
  const svc::SimReport report = *engine.validate_one(req);
  std::string out;
  {
    Scope span(log, SpanName::kNetResponseEncode, rid, r);
    out = net::encode_sim_report_line(report);
  }
  {
    Scope span(log, SpanName::kNetResponseDecode, rid, r);
    net::SimResponse response;
    if (!net::decode_sim_response(out, &response, &error)) {
      throw std::runtime_error("perfbench: replay response decode failed");
    }
  }
  replay.requests.push_back(rid);
  replay.request_bytes.push_back(static_cast<double>(line.size()));
  replay.response_bytes.push_back(response_bytes(report));
}

/// Replays batches [0, count) of one stream, as the daemon's reactor and
/// solver would handle them.
void replay_stream(Replay& replay, const IngestStream& spec,
                   std::size_t stream, std::size_t count) {
  ctrl::Replanner replanner;
  svc::SweepEngine engine({.threads = 1});
  SpanLog& log = replay.log;
  for (std::size_t b = 0; b < count; ++b) {
    const ctrl::IngestRequest batch = spec.batch(b);
    const std::uint64_t rid = request_id(stream, b);
    {
      const std::string text = sim::trace_to_string(batch.trace);
      std::istringstream in(text);
      const auto start = Clock::now();
      (void)sim::read_trace(in, batch.trace.arrivals_per_level.size());
      replay.read_trace_us.push_back(1e6 * seconds_since(start));
    }
    Scope root(log, SpanName::kReplayRequest, rid);
    const std::uint32_t r = root.handle();
    std::string line;
    {
      Scope span(log, SpanName::kNetRequestEncode, rid, r);
      line = net::encode_ingest_request_line(batch);
    }
    std::optional<ctrl::IngestRequest> decoded;
    std::string error;
    {
      Scope span(log, SpanName::kNetRequestDecode, rid, r);
      const auto envelope = net::json::parse(line, &error);
      if (envelope) decoded = net::decode_ingest_request(*envelope, &error);
    }
    const ctrl::IngestRequest request =
        decode_or_throw(std::move(decoded), error);
    std::optional<ctrl::IngestOutcome> outcome;
    {
      const std::uint32_t h = log.open(SpanName::kCtrlFold, rid, r);
      outcome = replanner.ingest(request);
      log.close(h);
      replay.fold_us.push_back(us_of(log.spans()[h - 1]));
    }
    std::string out;
    {
      Scope span(log, SpanName::kNetResponseEncode, rid, r);
      out = net::encode_ingest_report_line(outcome->report);
    }
    {
      Scope span(log, SpanName::kNetResponseDecode, rid, r);
      net::IngestResponse response;
      if (!net::decode_ingest_response(out, &response, &error)) {
        throw std::runtime_error("perfbench: replay ingest decode failed");
      }
    }
    replay.events += static_cast<double>(outcome->report.batch_events);
    ++replay.batches;
    replay.requests.push_back(rid);
    replay.request_bytes.push_back(static_cast<double>(line.size()));
    replay.response_bytes.push_back(static_cast<double>(out.size()));
    if (!outcome->revised) continue;

    // The drift re-solve as the daemon runs it: plan_one's key and probe,
    // the solve, the commit, then the push line both ways.
    std::string key;
    {
      Scope span(log, SpanName::kSvcCanonicalKey, rid, r);
      key = svc::canonical_key(*outcome->revised);
    }
    bool hit = false;
    {
      svc::PlanReport cached;
      Scope span(log, SpanName::kSvcCacheProbe, rid, r);
      hit = engine.try_cached_plan(key, &cached);
    }
    if (!hit) (void)timed_solve(replay, *outcome->revised, rid, r);
    const svc::PlanReport report = *engine.plan_one(*outcome->revised);
    ctrl::RevisedPlan revised;
    {
      const std::uint32_t h = log.open(SpanName::kCtrlCommit, rid, r);
      revised = replanner.commit(outcome->report.key, report);
      log.close(h);
      replay.commit_us.push_back(us_of(log.spans()[h - 1]));
    }
    ++replay.replans;
    std::string push;
    {
      Scope span(log, SpanName::kNetPushEncode, rid, r);
      push = net::encode_plan_event_line(outcome->report.key,
                                         revised.plan_epoch, revised.report);
    }
    {
      Scope span(log, SpanName::kNetPushDecode, rid, r);
      net::PushEvent event;
      if (!net::decode_push_event(push, &event, &error)) {
        throw std::runtime_error("perfbench: replay push decode failed");
      }
    }
  }
}

/// The traced window's own requests, replayed.
Replay replay_workload(const Runner& runner, const Window& traced) {
  const Options& options = runner.options();
  const std::uint64_t seed = options.seed;
  const std::size_t prefix = replay_prefix(options.workload);
  const bool hot = options.workload == Workload::kPlanHot;
  Replay replay;
  // The daemon answers plan-hot from a warm cache; so does the replay.
  svc::SweepEngine engine;
  if (hot) (void)engine.plan_sweep(runner.hot_set());
  for (std::size_t c = 0; c < runner.clients(); ++c) {
    const std::size_t first = traced.first[c];
    const std::size_t end = first + std::min(prefix, traced.done[c]);
    switch (options.workload) {
      case Workload::kPlanHot:
        for (std::size_t i = first; i < end; ++i) {
          const std::size_t k =
              runner.zipf().sample(Draw(seed, kHotPick, c, i).uniform());
          replay_plan(replay, engine, runner.hot_set()[k], request_id(c, i));
        }
        break;
      case Workload::kPlanCold:
        for (std::size_t i = first; i < end; ++i) {
          replay_plan(replay, engine, cold_request(seed, kColdStream, c, i),
                      request_id(c, i));
        }
        break;
      case Workload::kValidate:
        for (std::size_t i = first; i < end; ++i) {
          replay_validate(replay, engine,
                          validate_request(seed, kValidateStream, c, i),
                          request_id(c, i));
        }
        break;
    }
  }
  return replay;
}

struct Survey {
  Replay opt;
  Replay sim;
  Replay ctrl;
  double plan_one_overhead_us = 0.0;
  double fanout_speedup = 0.0;
};

Survey run_survey(std::uint64_t seed) {
  Survey survey;
  {
    // opt: Algorithm 1 on plan-cold's generator, and plan_one's overhead
    // over the same solves (plan_one on a fresh engine always misses).
    svc::SweepEngine engine({.threads = 1});
    double plan_one_us = 0.0;
    for (std::size_t i = 0; i < kSurveyPlans; ++i) {
      const svc::PlanRequest request =
          cold_request(seed, kSurveyStream, 0, i);
      const std::uint64_t rid = request_id(0, i);
      // Alternate which call runs first, so neither gets the warmer caches.
      auto time_plan_one = [&] {
        const auto start = Clock::now();
        (void)engine.plan_one(request);
        plan_one_us += 1e6 * seconds_since(start);
      };
      if (i % 2 == 0) time_plan_one();
      {
        Scope root(survey.opt.log, SpanName::kReplayRequest, rid);
        (void)timed_solve(survey.opt, request, rid, root.handle());
      }
      if (i % 2 == 1) time_plan_one();
    }
    double solve_us = 0.0;
    for (const double us : survey.opt.solve_us) solve_us += us;
    survey.plan_one_overhead_us =
        (plan_one_us - solve_us) / static_cast<double>(kSurveyPlans);
  }
  {
    // sim: validate's generator, every backend run serial; the coarse
    // requests run again on a pool sized like the engine's.
    svc::SweepEngine engine;
    mlcr::common::ThreadPool pool(0);
    FanOut fanout{pool};
    for (std::size_t i = 0; i < kSurveyValidates; ++i) {
      replay_validate(survey.sim, engine,
                      validate_request(seed, kSurveyStream, 0, i),
                      request_id(0, i), &fanout);
    }
    survey.fanout_speedup = fanout.pool_seconds > 0.0
                                ? fanout.serial_seconds / fanout.pool_seconds
                                : 0.0;
  }
  replay_stream(survey.ctrl,
                ingest_stream(seed, kSurveyStream, 0, kIngestPhase), 0,
                kSurveyBatches);
  return survey;
}

/// Nanoseconds per call of `op` when `threads` threads run it together.
template <class Op>
double per_call_ns(std::size_t threads, std::size_t calls, Op op) {
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> seconds(threads);
  std::vector<std::thread> team;
  for (std::size_t t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const auto start = Clock::now();
      for (std::size_t i = 0; i < calls; ++i) op(i);
      seconds[t] = seconds_since(start);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true);
  for (auto& thread : team) thread.join();
  return 1e9 * mean(seconds) / static_cast<double>(calls);
}

}  // namespace

std::vector<Metric> layer_metrics(Runner& runner, const Window& untraced,
                                  const Window& traced, double ping_us,
                                  std::string* spans_file) {
  const Options& options = runner.options();
  Replay own = replay_workload(runner, traced);
  Survey survey = run_survey(options.seed);

  // Self times of the replay, per span name and per layer.
  const std::vector<std::int64_t> self = self_times(own.log.spans());
  std::vector<double> name_us(static_cast<std::size_t>(SpanName::kCount));
  std::vector<std::size_t> name_n(name_us.size());
  std::map<std::string, double> layer_us;
  std::unordered_map<std::uint64_t, double> replay_request_us;
  double replay_total_us = 0.0;
  for (std::size_t i = 0; i < own.log.spans().size(); ++i) {
    const Span& span = own.log.spans()[i];
    const auto n = static_cast<std::size_t>(span.name);
    const double us = 1e-3 * static_cast<double>(self[i]);
    name_us[n] += us;
    ++name_n[n];
    if (span.name == SpanName::kReplayRequest) continue;
    layer_us[layer_of(span.name)] += us;
    replay_request_us[span.request] += us;
    replay_total_us += us;
  }
  auto mean_self = [&](SpanName name) {
    const auto n = static_cast<std::size_t>(name);
    return name_n[n] > 0 ? name_us[n] / static_cast<double>(name_n[n]) : 0.0;
  };
  auto count_of = [&](SpanName name) {
    return name_n[static_cast<std::size_t>(name)];
  };

  // Client latency of the same requests, from the traced window's roots.
  std::unordered_map<std::uint64_t, double> client_us;
  for (std::size_t c = 0; c < traced.logs.size(); ++c) {
    for (const Span& span : traced.logs[c].spans()) {
      if (span.name == SpanName::kClientRequest) {
        client_us[span.request] = us_of(span);
      }
    }
  }
  double client_sum = 0.0, replay_sum = 0.0;
  std::size_t matched = 0;
  for (const std::uint64_t rid : own.requests) {
    const auto it = client_us.find(rid);
    if (it == client_us.end()) continue;
    client_sum += it->second;
    replay_sum += replay_request_us[rid];
    ++matched;
  }
  const double unattributed =
      matched > 0 ? (client_sum - replay_sum) / static_cast<double>(matched)
                  : 0.0;

  // Daemon counters over the traced window.
  const Counters& b = traced.before;
  const Counters& a = traced.after;
  const double served = delta(b, a, "net.planned") +
                        delta(b, a, "net.validated");
  const double hits =
      delta(b, a, "cache.hits") + delta(b, a, "validate.cache.hits");
  const double leaders = delta(b, a, "net.singleflight.leaders");
  const double joined = delta(b, a, "net.singleflight.joined");

  // Micro-costs of the shared instruments.
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  mlcr::common::metrics::Registry registry;
  const double timer_ns = per_call_ns(1, 200000, [&](std::size_t i) {
    registry.timer("perfbench.timer").observe(static_cast<double>(i));
  });
  mlcr::common::metrics::Registry shared;
  const double contended_ns = per_call_ns(hw, 50000, [&](std::size_t i) {
    shared.timer("perfbench.timer").observe(static_cast<double>(i));
  });
  const double counter_ns = per_call_ns(1, 200000, [&](std::size_t) {
    registry.counter("perfbench.counter").increment();
  });
  double pool_us = 0.0;
  {
    mlcr::common::ThreadPool pool(0);
    constexpr std::size_t kTrips = 20000;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kTrips; ++i) pool.submit([] {}).get();
    pool_us = 1e6 * seconds_since(start) / static_cast<double>(kTrips);
  }

  const Replay& opt = survey.opt;
  const Replay& sv = survey.sim;
  const Replay& ct = survey.ctrl;
  auto share = [&](const char* layer) {
    const auto it = layer_us.find(layer);
    return replay_total_us > 0.0 && it != layer_us.end()
               ? it->second / replay_total_us
               : 0.0;
  };
  const std::size_t replayed = own.requests.size();
  std::vector<Metric> m = {
      {"trace_overhead_ratio",
       untraced.calm_throughput() > 0.0
           ? traced.calm_throughput() / untraced.calm_throughput()
           : 0.0,
       "ratio", traced.attempted},
      {"net.ping_rtt_us", ping_us, "us", 2000},
      {"net.request_encode_us", mean_self(SpanName::kNetRequestEncode), "us",
       count_of(SpanName::kNetRequestEncode)},
      {"net.request_decode_us", mean_self(SpanName::kNetRequestDecode), "us",
       count_of(SpanName::kNetRequestDecode)},
      {"net.response_encode_us", mean_self(SpanName::kNetResponseEncode),
       "us", count_of(SpanName::kNetResponseEncode)},
      {"net.response_decode_us", mean_self(SpanName::kNetResponseDecode),
       "us", count_of(SpanName::kNetResponseDecode)},
      {"net.request_bytes", mean(own.request_bytes), "bytes", replayed},
      {"net.response_bytes", mean(own.response_bytes), "bytes", replayed},
      {"net.unattributed_us", unattributed, "us", matched},
      {"svc.canonical_key_us", mean_self(SpanName::kSvcCanonicalKey), "us",
       count_of(SpanName::kSvcCanonicalKey)},
      {"svc.cache_probe_us", mean_self(SpanName::kSvcCacheProbe), "us",
       count_of(SpanName::kSvcCacheProbe)},
      {"svc.cache_hit_ratio", served > 0.0 ? hits / served : 0.0, "ratio",
       static_cast<std::size_t>(served)},
      {"svc.cache_evictions",
       delta(b, a, "cache.evictions") + delta(b, a, "validate.cache.evictions"),
       "count", 1},
      {"svc.singleflight_join_ratio",
       leaders + joined > 0.0 ? joined / (leaders + joined) : 0.0, "ratio",
       static_cast<std::size_t>(leaders + joined)},
      {"svc.admitted", delta(b, a, "net.admitted"), "count", 1},
      {"svc.rejected", delta_prefix(b, a, "net.rejected."), "count", 1},
      {"svc.plan_one_overhead_us", survey.plan_one_overhead_us, "us",
       kSurveyPlans},
      {"opt.solve_us_p50", percentile(opt.solve_us, 0.50), "us",
       opt.solve_us.size()},
      {"opt.solve_us_p99", percentile(opt.solve_us, 0.99), "us",
       opt.solve_us.size()},
      {"opt.outer_iterations_mean", mean(opt.outer), "count",
       opt.outer.size()},
      {"opt.outer_iterations_max",
       opt.outer.empty() ? 0.0
                         : *std::max_element(opt.outer.begin(),
                                             opt.outer.end()),
       "count", opt.outer.size()},
      {"opt.inner_iterations_mean", mean(opt.inner), "count",
       opt.inner.size()},
      {"opt.not_ok", static_cast<double>(opt.not_ok), "count",
       opt.solve_us.size()},
      {"sim.coarse_us_per_replica",
       sv.coarse_replicas > 0 ? sv.coarse_us / sv.coarse_replicas : 0.0,
       "us", static_cast<std::size_t>(sv.coarse_replicas)},
      {"sim.des_us_per_replica",
       sv.des_replicas > 0 ? sv.des_us / sv.des_replicas : 0.0, "us",
       static_cast<std::size_t>(sv.des_replicas)},
      {"sim.commits_per_replica",
       sv.replicas > 0 ? sv.commits / sv.replicas : 0.0, "count",
       static_cast<std::size_t>(sv.replicas)},
      {"sim.failures_per_replica",
       sv.replicas > 0 ? sv.failures / sv.replicas : 0.0, "count",
       static_cast<std::size_t>(sv.replicas)},
      {"sim.incomplete_ratio",
       sv.replicas > 0 ? sv.incomplete / sv.replicas : 0.0, "ratio",
       static_cast<std::size_t>(sv.replicas)},
      {"sim.fanout_speedup", survey.fanout_speedup, "ratio",
       static_cast<std::size_t>(sv.coarse_replicas)},
      {"sim.read_trace_us", mean(ct.read_trace_us), "us",
       ct.read_trace_us.size()},
      {"ctrl.fold_us", mean(ct.fold_us), "us", ct.fold_us.size()},
      {"ctrl.commit_us", mean(ct.commit_us), "us", ct.commit_us.size()},
      {"ctrl.events_per_batch",
       ct.batches > 0 ? ct.events / static_cast<double>(ct.batches) : 0.0,
       "count", ct.batches},
      {"ctrl.replans", static_cast<double>(ct.replans), "count", ct.batches},
      {"common.timer_observe_ns", timer_ns, "ns", 200000},
      {"common.timer_observe_contended_ns", contended_ns, "ns", 50000 * hw},
      {"common.counter_by_name_ns", counter_ns, "ns", 200000},
      {"common.pool_roundtrip_us", pool_us, "us", 20000},
      {"replay.net_share", share("net"), "ratio", replayed},
      {"replay.svc_share", share("svc"), "ratio", replayed},
      {"replay.opt_share", share("opt"), "ratio", replayed},
      {"replay.sim_share", share("sim"), "ratio", replayed},
      {"replay.ctrl_share", share("ctrl"), "ratio", replayed},
      {"replay.us_per_op",
       replayed > 0 ? replay_total_us / static_cast<double>(replayed) : 0.0,
       "us", replayed},
  };

  if (spans_file != nullptr) {
    // The spans of the replayed requests, client side and replay.
    const std::unordered_set<std::uint64_t> replayed_ids(own.requests.begin(),
                                                         own.requests.end());
    auto keep = [&](const Span& span) {
      return replayed_ids.count(span.request) > 0;
    };
    for (std::size_t c = 0; c < traced.logs.size(); ++c) {
      append_spans(spans_file, c, traced.logs[c].spans(), keep);
    }
    append_spans(spans_file, traced.logs.size(), own.log.spans(), keep);
  }
  return m;
}

}  // namespace perfbench
