// perfbench_sim — the benchmark's harness for the simulator substrate, built
// against the program's public API only. run.py invokes it; every mode
// prints exactly one JSON object on stdout.
//
//   perfbench_sim timed  --workload W --seed N --trial I
//       One cold ExperimentEnv + FlowerSystem::Setup (reported as the
//       process' CPU time up to its end), then trial I of W (seed derived
//       from N and I), driven in RunExperiment's order (ExperimentEnv,
//       TrafficSampler, FlowerSystem::Setup, Simulator::RunUntil hour by
//       hour) with every query traced, so each query without an outcome at
//       the end can be accounted for. Reports the trial's CPU time, peak
//       RSS, simulated outputs and query account. A run starts one process
//       per trial, so no trial inherits another's heap.
//   perfbench_sim traced --workload W --seed N
//       One RunExperiment trial, then the same trial driven step by step
//       with a counting Transport at the Network seam. Adds codec and kernel
//       micro-measurements on the trial's own message mix and queue depth.
//   perfbench_sim http --requests FILE --body-sizes FILE
//       Times HttpRequestParser on the given request bytes and
//       BuildHttpResponse at the given body sizes (live workloads).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "expt/config.h"
#include "expt/env.h"
#include "expt/experiment.h"
#include "expt/flower_system.h"
#include "flower/flower_peer.h"
#include "net/http.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/transport.h"
#include "simcore/ladder_queue.h"
#include "util/histogram.h"
#include "util/random.h"
#include "wire/codec.h"

using namespace flowercdn;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU seconds this process has used since it started: exec, dynamic
// loading and static initialisation included.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Workload definitions. flower_100k is the join storm of a 100k-peer
// deployment on the paper's Table 1 settings otherwise. Lookup latencies
// are whole simulated milliseconds, so 1-ms buckets make the lookup
// histogram an exact record of every sample: percentiles are computed from
// it here, not estimated.
bool MakeConfig(const std::string& workload, uint64_t seed,
                ExperimentConfig* config) {
  ExperimentConfig c;
  c.seed = seed;
  if (workload == "flower_100k") {
    c.target_population = 100000;
    c.duration = 1 * kHour;
  } else {
    return false;
  }
  c.metrics.lookup_bucket_ms = 1.0;
  c.metrics.lookup_buckets = 120000;
  *config = c;
  return true;
}

// Nearest-rank percentile of an exact 1-ms histogram.
double Percentile(const Histogram& h, double q) {
  if (h.count() == 0) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(h.count()));
  if (rank >= h.count()) rank = h.count() - 1;
  size_t seen = 0;
  for (size_t b = 0; b + 1 < h.num_buckets(); ++b) {
    seen += h.bucket_count(b);
    if (seen > rank) return h.bucket_lower(b);
  }
  return h.Max();  // overflow bucket
}

// --- Minimal JSON object writer ------------------------------------------

class Json {
 public:
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(const char* key, uint64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"' + v + '"';
    return *this;
  }
  Json& Raw(const char* key, const std::string& v) {
    Key(key);
    out_ += v;
    return *this;
  }
  std::string Done() const { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
  std::string out_;
};

std::string TrafficJson(const Network::TrafficBreakdown& t) {
  auto fam = [](const Network::TrafficBreakdown::Family& f) {
    return Json().Int("messages", f.messages).Int("bytes", f.bytes).Done();
  };
  return Json()
      .Raw("chord", fam(t.chord))
      .Raw("gossip", fam(t.gossip))
      .Raw("flower", fam(t.flower))
      .Raw("squirrel", fam(t.squirrel))
      .Raw("other", fam(t.other))
      .Raw("nack", fam(t.nack))
      .Raw("dropped", fam(t.dropped))
      .Done();
}

// The simulated (seed-determined) outputs of one trial. Everything here is
// host-independent, so repeats of a seed must produce identical strings.
std::string OutputsJson(const ExperimentConfig& config,
                        const ExperimentResult& r) {
  const uint64_t initial_dirs =
      static_cast<uint64_t>(config.catalog.num_websites) *
      static_cast<uint64_t>(config.topology.num_localities);
  return Json()
      .Int("queries", r.total_queries)
      .Int("hits", r.hits)
      .Num("hit_ratio", r.hit_ratio)
      .Num("mean_lookup_ms", r.mean_lookup_ms)
      .Int("lookup_count", r.lookup_all.count())
      .Num("lookup_sum_ms", r.lookup_all.sum())
      .Num("p50_lookup_ms", Percentile(r.lookup_all, 0.50))
      .Num("p99_lookup_ms", Percentile(r.lookup_all, 0.99))
      .Int("transfer_hits_count", r.transfer_hits.count())
      .Num("max_transfer_hits_ms",
           r.transfer_hits.count() > 0 ? r.transfer_hits.Max() : 0.0)
      .Num("max_link_latency_ms", config.topology.max_latency_ms)
      .Int("queries_issued", r.flower_stats.queries_issued)
      .Int("initial_directories", initial_dirs)
      .Int("churn_arrivals", r.churn_arrivals)
      .Int("churn_failures", r.churn_failures)
      .Int("final_population", r.final_population)
      .Int("messages_sent", r.messages_sent)
      .Int("bytes_sent", r.bytes_sent)
      .Raw("traffic", TrafficJson(r.traffic))
      .Int("events", r.events_processed)
      .Int("events_cancelled", r.events_cancelled)
      .Int("dring_resolve_failures", r.flower_stats.dring_resolve_failures)
      .Int("dir_query_timeouts", r.flower_stats.dir_query_timeouts)
      .Int("summary_hits", r.flower_stats.summary_hits)
      .Int("dir_failures_detected", r.flower_stats.dir_failures_detected)
      .Done();
}

// --- stepped trials ------------------------------------------------------------

// What became of every query a trial issued. A query without an outcome at
// the end is `died` when the session that issued it ended first (abrupt
// departures abandon their queries by design), `in_flight` when it is its
// live session's last query and began no longer before the end than the
// slowest query that did resolve, and `lost` otherwise: no outcome, and
// nothing that explains why.
struct QueryAccount {
  uint64_t issued = 0;  // FlowerSystem::ComputeStats().queries_issued
  uint64_t traced = 0;  // queries the TraceCollector saw begin
  uint64_t resolved = 0;
  uint64_t in_flight = 0;
  uint64_t died = 0;
  uint64_t lost = 0;

  std::string ToJson() const {
    return Json()
        .Int("issued", issued)
        .Int("traced", traced)
        .Int("resolved", resolved)
        .Int("in_flight", in_flight)
        .Int("died", died)
        .Int("lost", lost)
        .Done();
  }
};

// One trial driven through the public API in RunExperiment's order, so its
// simulated outputs are RunExperiment's for the same config (the traced run
// checks that). Every query is traced: a peer issues its queries one at a
// time, so the trace orders each session's queries and the live session's
// own count says which of them are its.
class SteppedTrial {
 public:
  explicit SteppedTrial(ExperimentConfig config) : config_(std::move(config)) {
    config_.collect_traces = true;
    config_.trace_max_queries = std::numeric_limits<size_t>::max();
    env_ = std::make_unique<ExperimentEnv>(config_);
  }

  ExperimentEnv& env() { return *env_; }
  const ExperimentConfig& config() const { return config_; }

  // TrafficSampler, then FlowerSystem::Setup. Install a transport before.
  void Setup() {
    sampler_ = std::make_unique<TrafficSampler>(
        &env_->sim(), &env_->network(), config_.stats_interval);
    sampler_->Start();
    flower_ = std::make_unique<FlowerSystem>(env_.get(), config_.flower);
    flower_->Setup();
  }

  // The trial's outputs, assembled like RunExperiment's.
  ExperimentResult Result() const {
    ExperimentResult r;
    r.total_queries = env_->metrics().total_queries();
    r.hits = env_->metrics().hits();
    r.hit_ratio = env_->metrics().HitRatio();
    r.mean_lookup_ms = env_->metrics().MeanLookupMs();
    r.lookup_all = env_->metrics().lookup_all();
    r.transfer_hits = env_->metrics().transfer_hits();
    r.flower_stats = flower_->ComputeStats();
    r.churn_arrivals = env_->churn().total_arrivals();
    r.churn_failures = env_->churn().total_failures();
    r.final_population = env_->network().alive_count();
    r.messages_sent = env_->network().messages_sent();
    r.bytes_sent = env_->network().bytes_sent();
    r.traffic = env_->network().traffic();
    r.events_processed = env_->sim().events_processed();
    r.events_cancelled = env_->sim().events_cancelled();
    return r;
  }

  QueryAccount Account() const {
    const auto& queries = env_->trace()->queries();
    QueryAccount a;
    a.issued = flower_->ComputeStats().queries_issued;
    a.traced = queries.size() + env_->trace()->overflow_queries();
    SimDuration slowest = 0;
    std::unordered_map<PeerId, std::vector<size_t>> by_peer;
    for (size_t i = 0; i < queries.size(); ++i) {
      by_peer[queries[i].peer].push_back(i);
      if (queries[i].finished) {
        slowest = std::max(slowest, queries[i].end - queries[i].start);
      }
    }
    const SimTime end = env_->sim().now();
    for (const auto& [peer, ids] : by_peer) {
      const FlowerPeer* live = flower_->session(peer);
      const size_t live_count =
          live == nullptr ? 0 : static_cast<size_t>(live->queries_issued());
      // More live queries than traced ones leaves the account unbalanced
      // (traced != issued), which run.py reports.
      const size_t first_live =
          ids.size() > live_count ? ids.size() - live_count : 0;
      for (size_t j = 0; j < ids.size(); ++j) {
        const TraceCollector::Query& q = queries[ids[j]];
        if (q.finished) {
          ++a.resolved;
        } else if (j < first_live) {
          ++a.died;
        } else if (j + 1 == ids.size() && end - q.start <= slowest) {
          ++a.in_flight;
        } else {
          ++a.lost;
        }
      }
    }
    return a;
  }

 private:
  ExperimentConfig config_;
  std::unique_ptr<ExperimentEnv> env_;
  std::unique_ptr<TrafficSampler> sampler_;
  std::unique_ptr<FlowerSystem> flower_;
};

// --- timed -----------------------------------------------------------------

// Seed of trial `i` of a run seeded `seed`: every run pools the same number
// of distinct trials, so its simulated figures are a mean over several
// deployments rather than one.
uint64_t TrialSeed(uint64_t seed, int i) {
  return seed * 1000003 + static_cast<uint64_t>(i);
}

int RunTimed(ExperimentConfig config, uint64_t seed, int trial_index) {
  // Cold set-up: the first environment and population this process builds.
  config.seed = TrialSeed(seed, trial_index);
  {
    ExperimentEnv env(config);
    FlowerSystem flower(&env, config.flower);
    flower.Setup();
  }
  const double setup_cpu_s = ProcessCpuSeconds();

  // CPU time from building the environment to tearing it down, the span a
  // RunExperiment call covers, plus the query account (a few ms).
  const double cpu0 = CpuSeconds();
  ExperimentResult r;
  QueryAccount account;
  {
    SteppedTrial trial(config);
    trial.Setup();
    for (SimTime t = kHour; t <= config.duration; t += kHour) {
      trial.env().sim().RunUntil(t);
    }
    trial.env().sim().RunUntil(config.duration);
    r = trial.Result();
    account = trial.Account();
  }
  const double cpu = CpuSeconds() - cpu0;

  std::printf("%s\n", Json()
                          .Num("setup_cpu_s", setup_cpu_s)
                          .Num("trial_cpu_s", cpu)
                          .Int("peak_rss_kb", PeakRssKb())
                          .Int("population", config.target_population)
                          .Raw("outputs", OutputsJson(config, r))
                          .Raw("account", account.ToJson())
                          .Done()
                          .c_str());
  return 0;
}

// --- traced ----------------------------------------------------------------

enum Family { kChord, kGossip, kFlower, kSquirrel, kOther, kNack, kFamilies };
const char* const kFamilyNames[kFamilies] = {"chord",    "gossip", "flower",
                                             "squirrel", "other",  "nack"};

Family FamilyOf(MessageType type) {
  if (type == kTransportNack) return kNack;
  if (type >= kChordMessageBase && type < kChordMessageBase + 100) {
    return kChord;
  }
  if (type >= kGossipMessageBase && type < kGossipMessageBase + 100) {
    return kGossip;
  }
  if (type >= kFlowerMessageBase && type < kFlowerMessageBase + 100) {
    return kFlower;
  }
  if (type >= kSquirrelMessageBase && type < kSquirrelMessageBase + 100) {
    return kSquirrel;
  }
  return kOther;
}

// Counts every message that crosses the Network -> Transport seam, times
// the in-process carry behind it, and keeps a deterministic sample of each
// message type's encoding for the codec measurements.
class CountingTransport : public Transport {
 public:
  struct Tally {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  struct TypeStats {
    uint64_t messages = 0;
    std::vector<std::vector<uint8_t>> samples;
  };

  explicit CountingTransport(Network* network) : inner_(network) {}

  void Carry(PeerId src, PeerId dst, SimDuration latency,
             size_t accounted_bytes, MessagePtr msg) override {
    Tally& t = tally_[FamilyOf(msg->type)];
    ++t.messages;
    t.bytes += accounted_bytes;
    TypeStats& ts = types_[msg->type];
    if (ts.messages % kSampleEvery == 0 && ts.samples.size() < kMaxSamples &&
        WireRegistry::Global().Find(msg->type) != nullptr) {
      ts.samples.push_back(WireEncode(*msg));
    }
    ++ts.messages;
    const auto a = Clock::now();
    inner_.Carry(src, dst, latency, accounted_bytes, std::move(msg));
    carry_s_ += Seconds(a, Clock::now());
  }
  const char* name() const override { return "perfbench-counting"; }

  const Tally& tally(Family f) const { return tally_[f]; }
  const std::map<MessageType, TypeStats>& types() const { return types_; }
  uint64_t total_messages() const {
    uint64_t n = 0;
    for (const Tally& t : tally_) n += t.messages;
    return n;
  }
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const Tally& t : tally_) n += t.bytes;
    return n;
  }
  double carry_s() const { return carry_s_; }

 private:
  static constexpr uint64_t kSampleEvery = 997;
  static constexpr size_t kMaxSamples = 32;
  InProcessTransport inner_;
  Tally tally_[kFamilies];
  std::map<MessageType, TypeStats> types_;
  double carry_s_ = 0;
};

// Codec cost on the trial's own mix: per-type encode/decode time of the
// sampled encodings, weighted by how often each type crossed the seam.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_msg = 0;
};

CodecCost MeasureCodec(const CountingTransport& transport) {
  CodecCost cost;
  uint64_t weight_total = 0;
  std::vector<uint8_t> buf;
  for (const auto& [type, ts] : transport.types()) {
    if (ts.samples.empty()) continue;
    double enc_ns = 0, dec_ns = 0, bytes = 0;
    for (const auto& sample : ts.samples) {
      Result<MessagePtr> decoded = WireDecode(sample);
      if (!decoded.ok()) {
        std::fprintf(stderr, "decode failed for type %d\n",
                     static_cast<int>(type));
        std::exit(3);
      }
      const MessagePtr& msg = decoded.value();
      constexpr int kReps = 200;
      auto a = Clock::now();
      for (int i = 0; i < kReps; ++i) {
        buf.clear();
        WireEncodeTo(*msg, &buf);
      }
      auto b = Clock::now();
      for (int i = 0; i < kReps; ++i) {
        Result<MessagePtr> again = WireDecode(sample);
        if (!again.ok()) std::exit(3);
      }
      auto c = Clock::now();
      enc_ns += Seconds(a, b) * 1e9 / kReps;
      dec_ns += Seconds(b, c) * 1e9 / kReps;
      bytes += static_cast<double>(sample.size());
    }
    const double n = static_cast<double>(ts.samples.size());
    cost.encode_ns += enc_ns / n * static_cast<double>(ts.messages);
    cost.decode_ns += dec_ns / n * static_cast<double>(ts.messages);
    cost.bytes_per_msg += bytes / n * static_cast<double>(ts.messages);
    weight_total += ts.messages;
  }
  if (weight_total > 0) {
    cost.encode_ns /= static_cast<double>(weight_total);
    cost.decode_ns /= static_cast<double>(weight_total);
    cost.bytes_per_msg /= static_cast<double>(weight_total);
  }
  return cost;
}

// Hold model on a public-API LadderQueue: `depth` pending events, then one
// pop plus one push at a random later time per step.
double LadderHoldNs(size_t depth, uint64_t seed) {
  LadderQueue q;
  Rng rng(seed);
  SimTime now = 0;
  for (size_t i = 0; i < depth; ++i) {
    q.Push(now + 1 + static_cast<SimTime>(rng.NextBounded(600000)), [] {},
           EventGuard{});
  }
  constexpr int kSteps = 2000000;
  FiredEvent ev;
  const auto a = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    q.Pop(&ev);
    now = ev.when;
    q.Push(now + 1 + static_cast<SimTime>(rng.NextBounded(600000)), [] {},
           EventGuard{});
  }
  return Seconds(a, Clock::now()) * 1e9 / kSteps;
}

int RunTraced(ExperimentConfig config, uint64_t seed) {
  // RunExperiment reference trial: the tracing overhead is measured against
  // it, and its outputs are what the traced trial must reproduce.
  const auto u0 = Clock::now();
  ExperimentResult untraced = RunExperiment(config, SystemKind::kFlowerCdn);
  const double untraced_s = Seconds(u0, Clock::now());
  const std::string untraced_outputs = OutputsJson(config, untraced);

  const auto t0 = Clock::now();
  SteppedTrial trial(config);
  ExperimentEnv& env = trial.env();
  CountingTransport transport(&env.network());
  env.network().SetTransport(&transport);
  trial.Setup();
  const double setup_s = Seconds(t0, Clock::now());

  // One span per simulated hour (per 10 minutes in a trial of an hour or
  // less): host seconds and per-family message deltas, so the join storm
  // and the steady state separate.
  const SimDuration step = config.duration <= kHour ? 10 * kMinute : kHour;
  std::string spans = "[";
  spans += Json()
               .Str("name", "setup")
               .Num("host_s", setup_s)
               .Done();
  uint64_t prev[kFamilies] = {};
  size_t pending_max = env.sim().pending_events();
  for (SimTime t = step; t <= config.duration; t += step) {
    const auto a = Clock::now();
    env.sim().RunUntil(t);
    const double host_s = Seconds(a, Clock::now());
    pending_max = std::max(pending_max, env.sim().pending_events());
    Json span;
    span.Str("name", "step").Int("sim_minute", static_cast<uint64_t>(t / kMinute))
        .Num("host_s", host_s)
        .Int("pending_events", env.sim().pending_events());
    for (int f = 0; f < kFamilies; ++f) {
      const uint64_t now_msgs = transport.tally(static_cast<Family>(f)).messages;
      span.Int(kFamilyNames[f], now_msgs - prev[f]);
      prev[f] = now_msgs;
    }
    spans += "," + span.Done();
  }
  env.sim().RunUntil(config.duration);
  const double traced_s = Seconds(t0, Clock::now());
  spans += "]";

  const std::string traced_outputs = OutputsJson(config, trial.Result());
  const QueryAccount account = trial.Account();

  Json seam;
  for (int f = 0; f < kFamilies; ++f) {
    const auto& t = transport.tally(static_cast<Family>(f));
    seam.Raw(kFamilyNames[f],
             Json().Int("messages", t.messages).Int("bytes", t.bytes).Done());
  }

  const TraceCollector& trace = *env.trace();
  Json phases;
  for (size_t p = 0; p < kNumQueryPhases; ++p) {
    const auto phase = static_cast<QueryPhase>(p);
    phases.Num(QueryPhaseName(phase), trace.phase_latency(phase).Mean());
  }

  const CodecCost codec = MeasureCodec(transport);
  const uint64_t seam_msgs = transport.total_messages();
  const double hold_ns = LadderHoldNs(pending_max, seed);

  std::printf(
      "%s\n",
      Json()
          .Num("untraced_run_s", untraced_s)
          .Num("traced_run_s", traced_s)
          .Raw("untraced_outputs", untraced_outputs)
          .Raw("traced_outputs", traced_outputs)
          .Raw("account", account.ToJson())
          .Num("setup_s", setup_s)
          .Int("peak_rss_kb", PeakRssKb())
          .Int("population", config.target_population)
          .Raw("seam", seam.Done())
          .Num("carry_ns", seam_msgs ? transport.carry_s() * 1e9 /
                                           static_cast<double>(seam_msgs)
                                     : 0.0)
          .Int("pending_max", pending_max)
          .Num("hold_ns", hold_ns)
          .Num("events_per_s",
               static_cast<double>(untraced.events_processed) / untraced_s)
          .Num("resolve_hops", trace.dring_hops().Mean())
          .Int("resolve_count", trace.dring_hops().count())
          .Raw("phase_ms", phases.Done())
          .Num("encode_ns", codec.encode_ns)
          .Num("decode_ns", codec.decode_ns)
          .Num("bytes_per_msg", codec.bytes_per_msg)
          .Num("modeled_bytes_per_msg",
               seam_msgs ? static_cast<double>(transport.total_bytes()) /
                               static_cast<double>(seam_msgs)
                         : 0.0)
          .Raw("spans", spans)
          .Done()
          .c_str());
  return 0;
}

// --- http --------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int RunHttp(const std::string& requests_path, const std::string& sizes_path) {
  const std::string requests = ReadFile(requests_path);
  std::vector<size_t> sizes;
  {
    std::istringstream in(ReadFile(sizes_path));
    size_t n = 0;
    while (in >> n) sizes.push_back(n);
  }
  if (requests.empty() || sizes.empty()) {
    std::fprintf(stderr, "http: empty inputs\n");
    return 2;
  }

  // Feed the parser one request per Append, as a closed-loop client's
  // requests reach the gateway (one read each), many times over.
  std::vector<std::string_view> pieces;
  for (size_t at = 0; at < requests.size();) {
    size_t end = requests.find("\r\n\r\n", at);
    if (end == std::string::npos) break;
    pieces.emplace_back(requests.data() + at, end + 4 - at);
    at = end + 4;
  }
  uint64_t parsed = 0;
  const auto a = Clock::now();
  do {
    HttpRequestParser parser;
    HttpRequest req;
    for (std::string_view piece : pieces) {
      parser.Append(piece.data(), piece.size());
      if (!parser.Next(&req)) {
        std::fprintf(stderr, "http: parse failed: %s\n",
                     parser.error().c_str());
        return 3;
      }
      ++parsed;
    }
  } while (Seconds(a, Clock::now()) < 0.3);
  const double parse_ns = Seconds(a, Clock::now()) * 1e9 /
                          static_cast<double>(std::max<uint64_t>(parsed, 1));

  // Build responses shaped like the gateway's at the recorded body sizes.
  uint64_t built = 0;
  size_t sink = 0;
  const auto b = Clock::now();
  do {
    for (size_t size : sizes) {
      std::string body(size, 'x');
      sink += BuildHttpResponse(200, "OK",
                                {{"X-FlowerCDN-Source", "petal"},
                                 {"X-FlowerCDN-Hit", "1"},
                                 {"X-FlowerCDN-Lookup-Ms", "0.0"},
                                 {"Content-Type", "application/octet-stream"}},
                                body)
                  .size();
      ++built;
    }
  } while (Seconds(b, Clock::now()) < 0.3);
  const double build_ns =
      Seconds(b, Clock::now()) * 1e9 / static_cast<double>(built);
  std::printf("%s\n", Json()
                          .Num("parse_ns", parse_ns)
                          .Num("build_ns", build_ns)
                          .Int("parsed", parsed)
                          .Int("built", built)
                          .Int("sink", sink)
                          .Done()
                          .c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim timed --workload W --seed N --trial I\n"
               "       perfbench_sim traced --workload W --seed N\n"
               "       perfbench_sim http --requests FILE --body-sizes FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (mode == "http") {
    if (!flags.count("requests") || !flags.count("body-sizes")) return Usage();
    return RunHttp(flags["requests"], flags["body-sizes"]);
  }
  if (!flags.count("workload") || !flags.count("seed")) return Usage();
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  ExperimentConfig config;
  if (!MakeConfig(flags["workload"], seed, &config)) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags["workload"].c_str());
    return 2;
  }
  if (mode == "timed") {
    if (!flags.count("trial")) return Usage();
    const int trial = std::atoi(flags["trial"].c_str());
    if (trial < 0) return Usage();
    return RunTimed(config, seed, trial);
  }
  config.seed = TrialSeed(seed, 0);
  if (mode == "traced") return RunTraced(config, seed);
  return Usage();
}
