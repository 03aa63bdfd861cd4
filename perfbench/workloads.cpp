#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "net/codec.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "svc/sweep_engine.h"

namespace perfbench {

namespace net = mlcr::net;
namespace svc = mlcr::svc;
namespace ctrl = mlcr::ctrl;

/// The traced windows' transport: the same framing net::Client uses, but
/// with encode, round trip and decode exposed so each gets its own span.
class TracedConn {
 public:
  explicit TracedConn(std::uint16_t port)
      : conn_(net::connect_to("127.0.0.1", port, kRequestTimeoutMs)),
        reader_(net::Codec::kJson) {}

  std::string round_trip(const std::string& line) {
    if (!conn_.write_all(net::frame_payload(line, net::Codec::kJson))) {
      throw std::runtime_error("perfbench: send failed");
    }
    std::string payload;
    if (conn_.read_frame(&reader_, &payload, kRequestTimeoutMs) !=
        net::Connection::ReadResult::kLine) {
      throw std::runtime_error("perfbench: no response within the timeout");
    }
    return payload;
  }

 private:
  net::Connection conn_;
  net::FrameReader reader_;
};

struct StreamState {
  explicit StreamState(IngestStream stream) : spec(std::move(stream)) {}

  IngestStream spec;
  std::unique_ptr<net::Client> ingest;
  std::unique_ptr<net::Client> subscriber;
  std::size_t next_batch = 0;
  std::uint64_t epoch = 0;
  std::vector<char> replanned;           ///< the daemon's flag, per batch
  std::vector<svc::PlanReport> pushes;   ///< pushed revisions, epoch order
};

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Untimed requests each plan-cold / validate client sends during set-up,
/// so lazy daemon state (allocator arenas, thread wake-up, page faults) is
/// paid before the window.  They come from a warm-up stream under a fixed
/// seed, so every run's set-up does the same work whatever --seed is, and
/// there is enough of it (about as much as plan-hot's pre-warm) that
/// setup_s is not dominated by thread start-up.  Validate warm-ups are
/// coarse only: one DES request can cost more than the rest together.
constexpr std::uint64_t kWarmupSeed = 0;
constexpr std::size_t kColdWarmup = 250;
constexpr std::size_t kValidateWarmup = 14;
/// Reports per client the correctness gate re-derives in-process.
constexpr std::size_t kColdSamples = 256;
constexpr std::size_t kValidateSamples = 64;
/// Stream index of the push probe.
constexpr std::size_t kProbeStream = 1000;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

}  // namespace

HostTicks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return parse_host_ticks(line);
}

namespace {

/// A report answers its request unless the solver hit an internal error;
/// diverged or iteration-capped solves are answers (counted in opt.not_ok
/// by the traced run), not failed operations.
bool served(mlcr::opt::Status status) {
  return status != mlcr::opt::Status::kInternalError;
}

/// encode -> round trip -> decode, each in its own child span of `root`.
template <class Encode, class Decode>
bool traced_call(TracedConn& conn, SpanLog& log, std::uint64_t rid,
                 std::uint32_t root, Encode&& encode, Decode&& decode) {
  std::string line;
  {
    Scope span(log, SpanName::kNetRequestEncode, rid, root);
    line = encode();
  }
  std::string reply;
  {
    Scope span(log, SpanName::kNetRoundTrip, rid, root);
    reply = conn.round_trip(line);
  }
  Scope span(log, SpanName::kNetResponseDecode, rid, root);
  return decode(reply);
}

/// Sends the stream's next batch; on a re-plan waits for the pushed
/// revision and sets *push_ms.  Returns false on any rejected, failed or
/// unexpected reply.
bool stream_step(StreamState& stream, double* push_ms) {
  const ctrl::IngestRequest request = stream.spec.batch(stream.next_batch);
  const auto sent = Clock::now();
  const net::IngestResponse response = stream.ingest->ingest(request);
  ++stream.next_batch;
  const bool replanned = response.accepted && response.report.replanned;
  stream.replanned.push_back(replanned ? 1 : 0);
  if (!response.accepted) return false;
  if (!replanned) return true;

  std::optional<net::PushEvent> event =
      stream.subscriber->poll_event(kRequestTimeoutMs);
  if (!event.has_value() || event->kind != net::PushEvent::Kind::kPlan ||
      event->plan_epoch != stream.epoch + 1) {
    return false;
  }
  ++stream.epoch;
  *push_ms = ms_since(sent);
  stream.pushes.push_back(std::move(event->report));
  return true;
}

void parse_counters(const std::string& jsonl, Counters* out) {
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    std::string error;
    const auto line = net::json::parse(
        std::string_view(jsonl).substr(pos, end - pos), &error);
    pos = end + 1;
    if (!line.has_value()) continue;
    const net::json::Value* kind = line->find("kind");
    const net::json::Value* name = line->find("name");
    if (kind == nullptr || name == nullptr || !kind->is_string() ||
        !name->is_string()) {
      continue;
    }
    if (kind->as_string() == "counter") {
      const net::json::Value* value = line->find("value");
      if (value != nullptr && value->is_number()) {
        (*out)[name->as_string()] = value->as_number();
      }
    } else if (kind->as_string() == "timer") {
      const net::json::Value* count = line->find("count");
      if (count != nullptr && count->is_number()) {
        (*out)[name->as_string() + ".count"] = count->as_number();
      }
    }
  }
}

}  // namespace

bool workload_from_string(std::string_view text, Workload* out) {
  if (text == "plan-hot") *out = Workload::kPlanHot;
  else if (text == "plan-cold") *out = Workload::kPlanCold;
  else if (text == "validate") *out = Workload::kValidate;
  else return false;
  return true;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kPlanHot: return "plan-hot";
    case Workload::kPlanCold: return "plan-cold";
    case Workload::kValidate: return "validate";
  }
  return "?";
}

std::size_t load_clients() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double delta_prefix(const Counters& before, const Counters& after,
                    const std::string& prefix) {
  double sum = 0.0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += delta(before, after, it->first);
  }
  return sum;
}

double Window::slice_rate(std::size_t k) const {
  const double width = nominal_seconds / static_cast<double>(kSlices);
  const double length =
      k + 1 < kSlices ? width : wall_seconds - width * static_cast<double>(k);
  return length > 0.0 ? static_cast<double>(latency[k].count()) / length
                      : 0.0;
}

double Window::calm_throughput() const {
  std::vector<double> rates;
  for (const std::size_t k : calm_slices()) rates.push_back(slice_rate(k));
  return median(std::move(rates));
}

Runner::Runner(Options options)
    : options_(std::move(options)),
      clients_(load_clients()),
      zipf_(kHotKeys, kZipfExponent) {
  if (options_.workload == Workload::kPlanHot) {
    hot_set_.reserve(kHotKeys);
    for (std::size_t k = 0; k < kHotKeys; ++k) {
      hot_set_.push_back(hot_request(options_.seed, k));
    }
  }
}

Runner::~Runner() { teardown(); }

std::unique_ptr<net::Client> Runner::connect() const {
  net::ClientOptions options;
  options.port = server_->port();
  options.timeout_ms = kRequestTimeoutMs;
  return std::make_unique<net::Client>(options);
}

double Runner::setup() {
  const auto start = Clock::now();
  server_ = std::make_unique<net::Server>(net::ServerOptions{});
  server_->start();
  metrics_client_ = connect();
  next_.assign(clients_, 0);
  samples_.assign(clients_, {});
  seen_.assign(clients_, 0);
  for (std::size_t c = 0; c < clients_; ++c) load_.push_back(connect());
  // Phase length 1: every batch after the stream's first drifts.
  probe_ = std::make_unique<StreamState>(
      ingest_stream(options_.seed, kIngestStream, kProbeStream, 1));
  probe_->ingest = connect();
  probe_->subscriber = connect();
  const net::SubscribeResponse ack =
      probe_->subscriber->subscribe(probe_->spec.base);
  if (!ack.accepted) {
    throw std::runtime_error("perfbench: subscribe rejected: " + ack.message);
  }

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(clients_);
  for (std::size_t c = 0; c < clients_; ++c) {
    threads.emplace_back([this, c, &errors] {
      try {
        switch (options_.workload) {
          case Workload::kPlanHot:
            // Pre-warm: every hot key is solved once, so every timed
            // request is a cache hit.
            for (std::size_t k = c; k < kHotKeys; k += clients_) {
              const net::Response r = load_[c]->plan(hot_set_[k]);
              if (!r.accepted || !served(r.report.status)) {
                throw std::runtime_error("perfbench: pre-warm plan failed");
              }
            }
            break;
          case Workload::kPlanCold:
            for (std::size_t i = 0; i < kColdWarmup; ++i) {
              (void)load_[c]->plan(
                  cold_request(kWarmupSeed, kWarmupStream, c, i));
            }
            break;
          case Workload::kValidate:
            for (std::size_t i = 0, sent = 0; sent < kValidateWarmup; ++i) {
              if (i % kDesEvery == kDesEvery - 1) continue;
              (void)load_[c]->validate(
                  validate_request(kWarmupSeed, kWarmupStream, c, i));
              ++sent;
            }
            break;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Runner::teardown() {
  load_.clear();
  traced_conns_.clear();
  probe_.reset();
  metrics_client_.reset();
  if (server_) {
    server_->drain();
    server_.reset();
  }
}

double Runner::ping_p50_us(std::size_t pings) {
  std::vector<double> rtt;
  rtt.reserve(pings);
  for (std::size_t i = 0; i < pings; ++i) {
    const auto start = Clock::now();
    if (!metrics_client_->ping()) {
      throw std::runtime_error("perfbench: ping failed");
    }
    rtt.push_back(1e3 * ms_since(start));
  }
  return percentile(std::move(rtt), 0.5);
}

Counters Runner::scrape() {
  Counters counters;
  parse_counters(metrics_client_->metrics(), &counters);
  return counters;
}

void Runner::keep_sample(std::size_t c, Sample sample) {
  const std::size_t capacity = options_.workload == Workload::kValidate
                                   ? kValidateSamples
                                   : kColdSamples;
  std::vector<Sample>& kept = samples_[c];
  const std::size_t slot =
      reservoir_slot(options_.seed, c, seen_[c]++, capacity);
  if (slot < kept.size()) {
    kept[slot] = std::move(sample);
  } else if (slot < capacity) {
    kept.push_back(std::move(sample));
  }
}

void Runner::client_thread(Window& result, std::size_t c,
                           Clock::time_point start,
                           Clock::time_point deadline, bool traced) {
  SpanLog* log = traced ? &result.logs[c] : nullptr;
  const std::uint64_t seed = options_.seed;
  std::unique_ptr<TracedConn> conn;
  auto reconnect = [&] {
    try {
      if (traced) {
        conn = std::make_unique<TracedConn>(server_->port());
      } else {
        load_[c] = connect();
      }
    } catch (const std::exception&) {
    }
  };
  if (traced) conn = std::move(traced_conns_[c]);

  std::size_t i = next_[c];
  result.first[c] = i;
  do {
    const std::uint64_t rid = request_id(c, i);
    double latency = kInf;
    bool ok = false;
    try {
      switch (options_.workload) {
        case Workload::kPlanHot:
        case Workload::kPlanCold: {
          const bool hot = options_.workload == Workload::kPlanHot;
          std::optional<svc::PlanRequest> cold;
          if (!hot) cold = cold_request(seed, kColdStream, c, i);
          const svc::PlanRequest& request =
              hot ? hot_set_[zipf_.sample(Draw(seed, kHotPick, c, i).uniform())]
                  : *cold;
          const auto sent = Clock::now();
          net::Response response;
          if (traced) {
            Scope root(*log, SpanName::kClientRequest, rid);
            ok = traced_call(
                *conn, *log, rid, root.handle(),
                [&] { return net::encode_request_line(request); },
                [&](const std::string& line) {
                  std::string error;
                  return net::decode_response(line, &response, &error);
                });
          } else {
            response = load_[c]->plan(request);
            ok = true;
          }
          ok = ok && response.accepted && served(response.report.status);
          if (ok) latency = ms_since(sent);
          if (ok && !hot) {
            keep_sample(c, {c, i, std::move(response.report), {}});
          }
          break;
        }
        case Workload::kValidate: {
          const svc::SimRequest request =
              validate_request(seed, kValidateStream, c, i);
          const auto sent = Clock::now();
          net::SimResponse response;
          if (traced) {
            Scope root(*log, SpanName::kClientRequest, rid);
            ok = traced_call(
                *conn, *log, rid, root.handle(),
                [&] { return net::encode_sim_request_line(request); },
                [&](const std::string& line) {
                  std::string error;
                  return net::decode_sim_response(line, &response, &error);
                });
          } else {
            response = load_[c]->validate(request);
            ok = true;
          }
          ok = ok && response.accepted && served(response.report.status);
          if (ok) latency = ms_since(sent);
          if (ok) keep_sample(c, {c, i, {}, std::move(response.report)});
          break;
        }
      }
    } catch (const std::exception&) {
      ok = false;
      reconnect();
    }
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      latency = kInf;
    }
    const double done_at =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.latency[slice_of(done_at, result.nominal_seconds, kSlices)].add(
        latency);
    ++i;
  } while (Clock::now() < deadline);
  next_[c] = i;
  result.done[c] = i - result.first[c];
}

Window Runner::run(double seconds, bool traced, bool probe) {
  Window window;
  window.first.assign(clients_, 0);
  window.done.assign(clients_, 0);
  window.nominal_seconds = seconds;
  if (traced) {
    // The traced window opens its own connections, in a fixed order, and
    // walks a fixed part of each sequence (see kTracedIndex).
    load_.clear();
    traced_conns_.clear();
    for (std::size_t c = 0; c < clients_; ++c) {
      traced_conns_.push_back(std::make_unique<TracedConn>(server_->port()));
      next_[c] = kTracedIndex;
    }
  }
  window.before = scrape();

  std::vector<Window> per_client(clients_ + 1);  // + the probe
  for (Window& w : per_client) {
    w.first.assign(clients_, 0);
    w.done.assign(clients_, 0);
    w.nominal_seconds = seconds;
  }
  if (traced) {
    window.logs.resize(clients_);
    for (std::size_t c = 0; c < clients_; ++c) {
      per_client[c].logs.resize(clients_);
      per_client[c].logs[c].reserve(1 << 18);
    }
  }
  const double cpu_start = process_cpu_seconds();
  HostTicks ticks = read_host_ticks();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_; ++c) {
    threads.emplace_back([this, &per_client, c, start, deadline, traced] {
      client_thread(per_client[c], c, start, deadline, traced);
    });
  }
  if (probe) {
    threads.emplace_back([this, &per_client, start, deadline] {
      probe_thread(per_client.back(), start, deadline);
    });
  }
  window.cpu_at_s.push_back(cpu_start);
  auto slice_boundary = [&] {
    window.cpu_at_s.push_back(process_cpu_seconds());
    const HostTicks now = read_host_ticks();
    window.steal.push_back(steal_share(ticks, now));
    ticks = now;
  };
  for (std::size_t k = 1; k < kSlices; ++k) {
    std::this_thread::sleep_until(start + (deadline - start) * k / kSlices);
    slice_boundary();
  }
  for (auto& thread : threads) thread.join();
  window.wall_seconds = std::chrono::duration<double>(Clock::now() - start)
                            .count();
  slice_boundary();
  window.after = scrape();

  for (std::size_t c = 0; c < per_client.size(); ++c) {
    Window& w = per_client[c];
    for (std::size_t k = 0; k < kSlices; ++k) {
      window.latency[k].merge(w.latency[k]);
      window.push[k].merge(w.push[k]);
    }
    window.attempted += w.attempted;
    window.failed += w.failed;
    window.push_failures += w.push_failures;
    if (c == clients_) break;  // the probe has no sequence of its own
    window.first[c] = w.first[c];
    window.done[c] = w.done[c];
    if (traced) window.logs[c] = std::move(w.logs[c]);
  }
  return window;
}

void Runner::probe_thread(Window& result, Clock::time_point start,
                          Clock::time_point deadline) {
  for (int k = 0;; ++k) {
    const auto due = start + std::chrono::milliseconds(kProbeIntervalMs) * k;
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    double push = -1.0;
    bool ok = false;
    try {
      ok = stream_step(*probe_, &push);
    } catch (const std::exception&) {
    }
    if (!ok) {
      // The stream cannot resume mid-sequence; the run fails.
      ++result.push_failures;
      return;
    }
    if (push >= 0.0) {
      const double done_at =
          std::chrono::duration<double>(Clock::now() - start).count();
      result.push[slice_of(done_at, result.nominal_seconds, kSlices)].add(
          push);
    }
  }
}

std::uint64_t Runner::check_stream(const StreamState& stream,
                                   std::string* detail) {
  // Mirror the stream in-process: the same batches folded in the same
  // order must drift at the same batches, and every pushed revision must
  // equal an in-process re-solve of the revised request.
  ctrl::Replanner mirror;
  svc::SweepEngine engine({.threads = 1});
  std::size_t push = 0;
  for (std::size_t b = 0; b < stream.replanned.size(); ++b) {
    const ctrl::IngestOutcome outcome = mirror.ingest(stream.spec.batch(b));
    const bool expected = outcome.revised.has_value();
    if (expected != (stream.replanned[b] != 0)) {
      *detail += "ingest batch " + std::to_string(b) +
                 ": re-plan flag differs from the in-process replanner\n";
      return 1;
    }
    if (!expected) continue;
    const svc::PlanReport report = *engine.plan_one(*outcome.revised);
    (void)mirror.commit(outcome.report.key, report);
    if (push >= stream.pushes.size()) break;  // counted as a failed op
    if (net::deterministic_fingerprint(stream.pushes[push]) !=
        net::deterministic_fingerprint(report)) {
      *detail += "pushed revision " + std::to_string(push + 1) +
                 " differs from the in-process re-solve\n";
      return 1;
    }
    ++push;
  }
  return 0;
}

std::uint64_t Runner::check(std::string* detail) {
  std::uint64_t mismatches = 0;
  svc::SweepEngine reference;
  const std::uint64_t seed = options_.seed;
  switch (options_.workload) {
    case Workload::kPlanHot: {
      // The whole hot set, as the daemon serves it now, against fresh
      // in-process solves.
      const std::vector<svc::PlanReport> expected =
          reference.plan_sweep(hot_set_);
      auto client = connect();
      for (std::size_t k = 0; k < hot_set_.size(); ++k) {
        const net::Response r = client->plan(hot_set_[k]);
        if (!r.accepted || net::deterministic_fingerprint(r.report) !=
                               net::deterministic_fingerprint(expected[k])) {
          ++mismatches;
          if (mismatches <= 3) {
            *detail += "hot key " + std::to_string(k) + " differs\n";
          }
        }
      }
      break;
    }
    case Workload::kPlanCold: {
      std::vector<svc::PlanRequest> requests;
      std::vector<const Sample*> got;
      for (const auto& per_client : samples_) {
        for (const Sample& s : per_client) {
          requests.push_back(cold_request(seed, kColdStream, s.client,
                                          s.index));
          got.push_back(&s);
        }
      }
      const auto expected = reference.plan_sweep(requests);
      for (std::size_t j = 0; j < got.size(); ++j) {
        if (net::deterministic_fingerprint(got[j]->plan) !=
            net::deterministic_fingerprint(expected[j])) {
          ++mismatches;
          if (mismatches <= 3) {
            *detail += "plan-cold request " + std::to_string(got[j]->client) +
                       "/" + std::to_string(got[j]->index) + " differs\n";
          }
        }
      }
      break;
    }
    case Workload::kValidate: {
      std::vector<svc::SimRequest> requests;
      std::vector<const Sample*> got;
      for (const auto& per_client : samples_) {
        for (const Sample& s : per_client) {
          requests.push_back(validate_request(seed, kValidateStream, s.client,
                                              s.index));
          got.push_back(&s);
        }
      }
      const auto expected = reference.validate_sweep(requests);
      for (std::size_t j = 0; j < got.size(); ++j) {
        if (net::deterministic_fingerprint(got[j]->sim) !=
            net::deterministic_fingerprint(expected[j])) {
          ++mismatches;
          if (mismatches <= 3) {
            *detail += "validate request " + std::to_string(got[j]->client) +
                       "/" + std::to_string(got[j]->index) + " differs\n";
          }
        }
      }
      break;
    }
  }
  if (probe_) mismatches += check_stream(*probe_, detail);
  return mismatches;
}

std::size_t Runner::samples() const {
  std::size_t n = 0;
  for (const auto& per_client : samples_) n += per_client.size();
  return n;
}

}  // namespace perfbench
