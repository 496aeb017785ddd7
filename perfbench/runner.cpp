// Benchmark runner: runs one named workload against bfc_core for a time
// budget, timing every call into the library's public entry points from
// outside src/ (in wall seconds and in host-speed-normalized seconds, see
// HostMeter), and prints one JSON line per repetition, a summary line
// pooled over the sub-runs and a closing environment line.
// perfbench/run.py builds this, aggregates the lines
// into the benchmark's metrics and checks them; see perfbench/README.md.
//
//   bfc_perfbench --workload t1_incast --seed 1 --seconds 20 --trace 0
//                 --out .bench_out/t1_incast
//
// Exits 1 if any output check fails, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/topology.hpp"
#include "harness/experiment.hpp"
#include "sim_metrics.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

extern char** environ;

namespace {

using bfc::ExperimentConfig;
using bfc::ExperimentResult;
using bfc::ExperimentRun;
using bfc::Time;
using bfc::TopoGraph;
using Clock = std::chrono::steady_clock;

// ---- spans ---------------------------------------------------------------

// In-memory span log around every timed call: name, start, end, the span
// that caused it, and the repetition it belongs to. Written out as
// Chrome-trace JSON when the runner exits.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0, end_us = 0;
    int parent = -1;
    int rep = 0;
  };

  explicit SpanLog(Clock::time_point t0) : t0_(t0) {}

  // Times fn() as a child of the innermost open span; returns seconds.
  template <typename Fn>
  double time(const char* name, int rep, Fn&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, us_since_t0(), 0,
                      open_.empty() ? -1 : open_.back(), rep});
    open_.push_back(id);
    fn();
    open_.pop_back();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = us_since_t0();
    return (s.end_us - s.start_us) * 1e-6;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d, \"rep\": %d}}%s\n",
                    s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                    s.parent, s.rep, i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double us_since_t0() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- host-speed reference ------------------------------------------------

// The shared host this benchmark runs on changes speed by up to 2x within
// seconds and drifts over minutes, for the simulator and for any fixed
// loop alike. The runner therefore measures the host's current speed with
// a short reference probe between calls into the library and reports each
// call's time also in reference-normalized seconds: its wall time scaled
// by kReferenceNominalS / (the probe's time around it).

// A fixed discrete-event loop owned by the benchmark, so it never changes
// with the simulator: 10,000 events through a binary-heap queue of 4,096
// pending events over a 1 MiB table of 64-byte records, each event
// reading and updating one pseudo-random record and scheduling its
// successor. Returns the seconds the loop took (about 2 ms).
double reference_loop() {
  constexpr std::uint32_t kNodes = 1u << 14;
  constexpr int kEvents = 10'000;
  struct Node {
    std::uint64_t w[8];
  };
  thread_local std::vector<Node> nodes(kNodes);
  std::fill(nodes.begin(), nodes.end(), Node{});
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Ev> storage;
  storage.reserve(4096 + 1);
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> queue(
      std::greater<Ev>{}, std::move(storage));
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) {
    queue.push({next() & 1023, static_cast<std::uint32_t>(next() % kNodes)});
  }
  const Clock::time_point t0 = Clock::now();
  for (int e = 0; e < kEvents; ++e) {
    const Ev ev = queue.top();
    queue.pop();
    Node& n = nodes[ev.second];
    const std::uint64_t r = next() ^ n.w[ev.first & 7];
    n.w[r & 7] += r;
    if ((r >> 9) & 1) n.w[(r >> 3) & 7] ^= ev.first;
    queue.push({ev.first + 1 + (r & 1023),
                static_cast<std::uint32_t>((r >> 20) % kNodes)});
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  volatile std::uint64_t sink = x;
  (void)sink;
  return s;
}

// Runs the reference loop on `threads` threads at once, as many as the
// simulation runs shards; returns their mean seconds.
double reference_probe(int threads) {
  std::vector<double> s(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> others;
  for (int i = 1; i < threads; ++i) {
    others.emplace_back(
        [&s, i] { s[static_cast<std::size_t>(i)] = reference_loop(); });
  }
  s[0] = reference_loop();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (double v : s) sum += v;
  return sum / threads;
}

// The probe's typical time on the 4-vCPU Xeon host the benchmark was
// written on, so that normalized seconds read close to wall seconds there.
constexpr double kReferenceNominalS = 0.002;
// Calls are grouped into intervals of at least this much wall time, and a
// probe closes each interval.
constexpr double kProbeEveryS = 0.04;
// The run advances in run_to calls of this much simulated time, so that
// probes fall inside the busy phases; the results do not depend on it.
constexpr Time kRunToStep = bfc::microseconds(10);

// Times calls into the library for one repetition. Probes open the
// repetition and close every interval of kProbeEveryS of calls; an
// interval's normalized seconds are its wall seconds times
// kReferenceNominalS over the mean of the two probes around it. Probes and
// whatever the runner does between calls are in neither sum.
class HostMeter {
 public:
  HostMeter(SpanLog& spans, int rep, int threads)
      : spans_(spans), rep_(rep), threads_(threads) {
    last_probe_ = probe();
  }

  // Times fn() as span `name`; returns its wall seconds.
  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    const double s = spans_.time(name, rep_, std::forward<Fn>(fn));
    pending_s_ += s;
    if (pending_s_ >= kProbeEveryS) close_interval();
    return s;
  }

  // Closes the last interval; returns {wall seconds, normalized seconds}.
  std::pair<double, double> finish() {
    if (pending_s_ > 0) close_interval();
    return {wall_s_, norm_s_};
  }

  const std::vector<double>& probes() const { return probes_; }

 private:
  double probe() {
    double s = 0;
    spans_.time("bench.reference", rep_,
                [&] { s = reference_probe(threads_); });
    probes_.push_back(s);
    return s;
  }
  void close_interval() {
    const double p = probe();
    wall_s_ += pending_s_;
    norm_s_ += pending_s_ * kReferenceNominalS / ((last_probe_ + p) / 2);
    pending_s_ = 0;
    last_probe_ = p;
  }

  SpanLog& spans_;
  int rep_;
  int threads_;
  double last_probe_ = 0, pending_s_ = 0, wall_s_ = 0, norm_s_ = 0;
  std::vector<double> probes_;
};

// ---- workloads -----------------------------------------------------------

struct Workload {
  const char* name;
  bfc::Scheme scheme;
  double load;
  double incast_load;
  Time stop;      // arrival window
  Time drain;     // run past stop for completions
  int max_shards; // capped at the host's hardware threads
  bool storm;     // ext_fault's three-flap storm
  bool warm;      // checkpoint at stop/2, restore into a fresh run, finish
  int sub_runs;   // independent traffic seeds per benchmark seed
  TopoGraph (*build)();
};

// Each row copies a configuration a figure binary already runs (fig05a's
// BFC row, fig15's t3_16384 row, ext_fault's DCQCN+Win row). The arrival
// windows are sized to the time budget, and t3_fault_warm drains 8 ms
// instead of ext_fault's 4 so every flow completes on every seed.
const Workload kWorkloads[] = {
    {"t1_incast", bfc::Scheme::kBfc, 0.60, 0.05, bfc::microseconds(400),
     bfc::milliseconds(2), 1, false, false, 12,
     [] { return TopoGraph::fat_tree(bfc::FatTreeConfig::t1()); }},
    {"t3_scale", bfc::Scheme::kBfc, 0.35, 0.02, bfc::microseconds(30),
     bfc::milliseconds(1), 4, false, false, 4,
     [] { return TopoGraph::three_tier(bfc::ThreeTierConfig::t3_16384()); }},
    {"t3_fault_warm", bfc::Scheme::kDcqcnWin, 0.60, 0.0,
     bfc::microseconds(40), bfc::milliseconds(8), 1, true, true, 4,
     [] { return TopoGraph::three_tier(bfc::ThreeTierConfig::t3_1024()); }},
};

int shards_for(const Workload& w) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(w.max_shards, hw));
}

// ext_fault's storm: two seeded fabric flaps in [0.35, 0.45]*stop holding
// 0.15*stop, plus an access-link flap of the first traced non-incast
// destination in [0.5, 0.6]*stop.
bfc::FaultPlan make_storm(const TopoGraph& topo,
                          const bfc::TrafficConfig& traffic,
                          std::uint64_t seed) {
  const Time stop = traffic.stop;
  bfc::FaultPlan plan = bfc::FaultPlan::random_flaps(
      topo, 2, (stop * 35) / 100, (stop * 45) / 100, (stop * 15) / 100, seed);
  bfc::ArrivalStream stream(topo, traffic);
  int dst = -1;
  for (Time t = 0; dst < 0 && t < stop;) {
    t = std::min(stop, t + bfc::microseconds(1));
    stream.advance(t, [&dst](const bfc::FlowArrival& a) {
      if (dst < 0 && !a.incast) dst = static_cast<int>(a.key.dst);
    });
  }
  if (dst >= 0) {
    const int tor = topo.ports(dst)[0].peer;
    plan.add_link_flap(dst, tor, (stop * 50) / 100, (stop * 60) / 100);
  }
  return plan;
}

ExperimentConfig make_config(const Workload& w, const TopoGraph& topo,
                             std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.scheme = w.scheme;
  cfg.traffic.dist = &bfc::SizeDist::by_name("google");
  cfg.traffic.load = w.load;
  cfg.traffic.incast_load = w.incast_load;
  cfg.traffic.stop = w.stop;
  cfg.traffic.seed = seed;
  cfg.drain = w.drain;
  cfg.shards = shards_for(w);
  if (w.storm) {
    cfg.faults = make_storm(topo, cfg.traffic, seed);
    cfg.goodput_sample_period = std::max<Time>(w.stop / 100,
                                               bfc::microseconds(1));
  }
  return cfg;
}

// ---- one repetition ------------------------------------------------------

struct Rep {
  bool traced = false;
  std::vector<std::pair<std::string, double>> values;  // metric -> value
  std::vector<std::string> failed_checks;
  std::uint64_t digest = 0;
  std::string sync;  // resolved cross-shard sync protocol
  // Kept for pooling across sub-runs: slowdown samples and flow counts.
  std::vector<bfc::SizeBin> bins;
  std::uint64_t flows_started = 0, flows_completed = 0;

  void put(const std::string& k, double v) { values.emplace_back(k, v); }
  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
}

void set_tracing(bool on, const std::string& out_dir) {
  if (on) {
    setenv("BFC_METRICS", "1", 1);
    setenv("BFC_TRACE", "1", 1);
    setenv("BFC_TRACE_OUT", (out_dir + "/engine_trace.json").c_str(), 1);
  } else {
    unsetenv("BFC_METRICS");
    unsetenv("BFC_TRACE");
    unsetenv("BFC_TRACE_OUT");
  }
}

Rep run_rep(const Workload& w, std::uint64_t seed, bool traced, int rep_id,
            const std::string& out_dir, SpanLog& spans) {
  Rep rep;
  rep.traced = traced;
  set_tracing(traced, out_dir);
  std::unique_ptr<TopoGraph> topo;
  ExperimentConfig cfg;
  std::unique_ptr<ExperimentRun> run;
  ExperimentResult r;
  double traffic_s = 0, drain_s = 0, save_s = 0, restore_s = 0,
         resave_s = 0, collect_s = 0, build_s = 0, construct_s = 0;
  std::size_t image_bytes = 0;

  spans.time("rep", rep_id, [&] {
    const double setup_s = spans.time("setup", rep_id, [&] {
      build_s = spans.time("topology.build", rep_id, [&] {
        topo = std::make_unique<TopoGraph>(w.build());
      });
      cfg = make_config(w, *topo, seed);
      construct_s = spans.time("harness.construct", rep_id, [&] {
        run = std::make_unique<ExperimentRun>(*topo, cfg);
      });
    });
    const Time stop = cfg.traffic.stop;
    const Time horizon = run->horizon();
    HostMeter meter(spans, rep_id, cfg.shards);
    // Advances the run to `to` in run_to calls of kRunToStep; returns
    // their wall seconds.
    Time at = 0;
    auto advance = [&](Time to) {
      double s = 0;
      while (at < to) {
        at = std::min(to, at + kRunToStep);
        s += meter.time("engine.run_to", [&] { run->run_to(at); });
      }
      return s;
    };
    spans.time("wall", rep_id, [&] {
      if (w.warm) {
        traffic_s += advance(stop / 2);
        bfc::WarmCheckpoint cp;
        save_s = meter.time("snapshot.save", [&] { cp = run->checkpoint(); });
        image_bytes = cp.image.size();
        meter.time("harness.release", [&] { run.reset(); });
        std::string err;
        restore_s = meter.time("snapshot.restore", [&] {
          run = ExperimentRun::restore(*topo, cfg, cp, &err);
        });
        rep.check(run != nullptr, "restore failed: " + err);
        if (run == nullptr) return;
        bfc::WarmCheckpoint again;
        resave_s = meter.time("snapshot.resave",
                              [&] { again = run->checkpoint(); });
        rep.check(again.image == cp.image,
                  "checkpoint after restore differs from the restored image");
      }
      traffic_s += advance(stop);
      drain_s = advance(horizon);
      collect_s = meter.time("harness.collect", [&] { r = run->collect(); });
    });
    const auto [wall_s, wall_norm_s] = meter.finish();
    run.reset();
    std::vector<double> probes = meter.probes();
    std::sort(probes.begin(), probes.end());
    rep.put("setup_s", setup_s);
    rep.put("wall_s", wall_s);
    rep.put("wall_norm_s", wall_norm_s);
    rep.put("reference_ms", probes[probes.size() / 2] * 1e3);
  });
  if (!rep.failed_checks.empty()) return rep;

  // Standalone per-layer probes, outside setup and wall: the partition the
  // engine computes in its constructor, and one generator replica replayed
  // over the arrival window the way each host-owning shard replays it.
  if (traced) {
    rep.put("topology.partition_s",
            spans.time("topology.partition", rep_id,
                       [&] { (void)topo->partition(cfg.shards); }));
    std::uint64_t arrivals = 0;
    rep.put("workload.replay_s",
            spans.time("workload.replay", rep_id, [&] {
              bfc::ArrivalStream stream(*topo, cfg.traffic);
              for (Time t = 0; t < cfg.traffic.stop;) {
                t = std::min(cfg.traffic.stop, t + cfg.gen_window);
                stream.advance(t, [&](const bfc::FlowArrival&) {
                  ++arrivals;
                });
              }
            }));
    rep.put("workload.arrivals", static_cast<double>(arrivals));
  }

  const perfbench::Fidelity f = perfbench::fidelity(r.bins);
  std::uint64_t shard_sum = 0, shard_max = 0;
  for (std::uint64_t e : r.shard_events) {
    shard_sum += e;
    shard_max = std::max(shard_max, e);
  }
  rep.digest = perfbench::sim_digest(r);
  rep.sync = r.sync;
  rep.flows_started = r.flows_started;
  rep.flows_completed = r.flows_completed;

  rep.check(f.edges_ok, "8,891 B and 281,171 B are not paper_size_bins edges");
  rep.check(r.flows_started > 0, "no flows started");
  rep.check(r.flows_completed <= r.flows_started,
            "flows_completed > flows_started");
  rep.check(shard_sum == r.events_processed,
            "sum of shard_events != events_processed");
  if (w.scheme == bfc::Scheme::kBfc && !w.storm) {
    rep.check(r.drops == 0, "lossless BFC run without faults dropped packets");
  }
  if (w.storm) {
    rep.check(r.blackholed + r.reroutes + r.unreachable_parks > 0,
              "fault storm produced no fault activity");
  }
  rep.check(f.short_n > 0 && f.long_n > 0,
            "no completed short or long flows to measure");

  const double events = static_cast<double>(r.events_processed);
  const double mean_shard =
      r.shard_events.empty()
          ? 0
          : static_cast<double>(shard_sum) /
                static_cast<double>(r.shard_events.size());
  rep.put("flows_started", static_cast<double>(r.flows_started));
  rep.put("flows_completed", static_cast<double>(r.flows_completed));
  rep.put("short_p99_slowdown", f.short_p99);
  rep.put("short_n", static_cast<double>(f.short_n));
  rep.put("long_mean_slowdown", f.long_mean);
  rep.put("long_n", static_cast<double>(f.long_n));
  rep.put("topology.build_s", build_s);
  rep.put("harness.construct_s", construct_s);
  rep.put("harness.collect_s", collect_s);
  rep.put("engine.traffic_s", traffic_s);
  rep.put("engine.drain_s", drain_s);
  rep.put("engine.events", events);
  rep.put("engine.ns_per_event", (traffic_s + drain_s) * 1e9 / events);
  rep.put("engine.events_per_s", events / (traffic_s + drain_s));
  rep.put("engine.shard_imbalance",
          mean_shard > 0 ? static_cast<double>(shard_max) / mean_shard : 0);
  rep.put("engine.events_stolen", static_cast<double>(r.events_stolen));
  rep.put("engine.inbox_overflows", static_cast<double>(r.inbox_overflows));
  rep.put("engine.clock_waits", static_cast<double>(r.clock_waits));
  rep.put("engine.clock_wait_ns", static_cast<double>(r.clock_wait_ns));
  rep.put("engine.ring_flush_events",
          static_cast<double>(r.ring_flush_events));
  rep.put("engine.steal_batches", static_cast<double>(r.steal_batches));
  rep.put("engine.wheel_hw",
          static_cast<double>(r.wheel_near_hw + r.wheel_far_hw));
  rep.put("engine.inbox_hw", static_cast<double>(r.inbox_occ_hw));
  rep.put("engine.arena_blocks_hw", static_cast<double>(r.arena_blocks_hw));
  rep.put("switch.ports_hw",
          static_cast<double>(r.egress_ports_hw + r.ingress_ports_hw));
  rep.put("switch.table_chunks", static_cast<double>(r.table_chunks));
  rep.put("switch.reclaim_sweeps", static_cast<double>(r.reclaim_sweeps));
  rep.put("switch.bfc_pauses", static_cast<double>(r.bfc.pauses));
  rep.put("switch.bfc_resumes", static_cast<double>(r.bfc.resumes));
  rep.put("switch.collision_frac", r.collision_frac);
  rep.put("switch.buffer_p99_mb", r.buffer_p99_mb);
  rep.put("switch.pfc_frac", r.pfc_frac_tor_to_spine + r.pfc_frac_spine_to_tor);
  rep.put("switch.drops", static_cast<double>(r.drops));
  rep.put("nic.class_transitions",
          static_cast<double>(r.nic_class_transitions));
  rep.put("nic.receiver_slots_hw", static_cast<double>(r.receiver_slots_hw));
  rep.put("fault.reroutes", static_cast<double>(r.reroutes));
  rep.put("fault.parks", static_cast<double>(r.unreachable_parks));
  rep.put("fault.blackholed", static_cast<double>(r.blackholed));
  rep.put("snapshot.save_s", save_s);
  rep.put("snapshot.restore_s", restore_s);
  rep.put("snapshot.resave_s", resave_s);
  rep.put("snapshot.image_mb", static_cast<double>(image_bytes) / 1e6);
  rep.put("peak_rss_mb", peak_rss_mb());
  rep.bins = std::move(r.bins);
  return rep;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_rep(const Rep& rep, int id, int sub_run) {
  std::ostringstream o;
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, rep.digest);
  o << "{\"rep\": " << id << ", \"sub_run\": " << sub_run
    << ", \"traced\": " << (rep.traced ? "true" : "false")
    << ", \"sim_digest\": \"" << digest << "\", \"failed_checks\": [";
  for (std::size_t i = 0; i < rep.failed_checks.size(); ++i) {
    o << (i ? ", " : "") << json_str(rep.failed_checks[i]);
  }
  o << "], \"values\": {";
  for (std::size_t i = 0; i < rep.values.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", rep.values[i].second);
    o << (i ? ", " : "") << json_str(rep.values[i].first) << ": " << num;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

// Clears every inherited BFC_* knob, so a stray BFC_FAULT_FLAPS or
// BFC_SYNC cannot silently change what is measured.
void clear_bfc_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("BFC_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bfc_perfbench: %s\nusage: bfc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--out") out_dir = v;
    else return usage(("unknown flag " + k).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr) return usage("unknown --workload");
  if (out_dir.empty()) return usage("--out is required");
  if (!(seconds >= 0) || (trace != 0 && trace != 1)) {
    return usage("--seconds must be >= 0 and --trace 0 or 1");
  }
  clear_bfc_env();

  const Clock::time_point t0 = Clock::now();
  SpanLog spans(t0);
  bool ok = true;
  std::string sync = "unknown";
  // Sub-run k of benchmark seed n draws traffic (and storm) seed
  // n * 1000 + k. An untraced run cycles k = 0..K-1 and needs all K for
  // the pooled fidelity metrics; a traced run runs each sub-run twice,
  // untraced then traced, for the tracing-overhead ratio. A sub-run seen
  // before must reproduce its digest (telemetry on or off).
  const int k_subs = w->sub_runs;
  const int min_reps = trace != 0 ? 2 : k_subs;
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(k_subs), 0);
  std::vector<bool> seen(static_cast<std::size_t>(k_subs), false);
  std::vector<bfc::SizeBin> pooled = bfc::paper_size_bins();
  std::uint64_t started = 0, completed = 0;
  int distinct = 0;
  for (int id = 0;; ++id) {
    const Clock::time_point rep0 = Clock::now();
    const int k = (trace != 0 ? id / 2 : id) % k_subs;
    const bool traced = trace != 0 && id % 2 == 1;
    Rep rep = run_rep(*w, seed * 1000 + static_cast<std::uint64_t>(k), traced,
                      id, out_dir, spans);
    const auto ku = static_cast<std::size_t>(k);
    if (rep.failed_checks.empty()) {
      if (!seen[ku]) {
        seen[ku] = true;
        digests[ku] = rep.digest;
        ++distinct;
        started += rep.flows_started;
        completed += rep.flows_completed;
        for (std::size_t b = 0; b < std::min(pooled.size(), rep.bins.size());
             ++b) {
          pooled[b].slowdowns.insert(pooled[b].slowdowns.end(),
                                     rep.bins[b].slowdowns.begin(),
                                     rep.bins[b].slowdowns.end());
        }
      }
      rep.check(rep.digest == digests[ku],
                "sim_digest differs from an earlier run of this sub-run");
    }
    if (!rep.sync.empty()) sync = rep.sync;
    print_rep(rep, id, k);
    if (!rep.failed_checks.empty()) {
      ok = false;
      break;
    }
    const Clock::time_point now = Clock::now();
    const double elapsed = std::chrono::duration<double>(now - t0).count();
    const double last = std::chrono::duration<double>(now - rep0).count();
    // Stop once the budget cannot fit another repetition like the last.
    if (id + 1 >= min_reps && elapsed + last > seconds) break;
  }
  if (ok) {
    // Pooled fidelity over every distinct sub-run, and one digest over
    // the sub-run digests in sub-run order.
    const perfbench::Fidelity f = perfbench::fidelity(pooled);
    perfbench::Digest d;
    for (std::size_t k = 0; k < digests.size(); ++k) {
      if (seen[k]) d.add(digests[k]);
    }
    std::printf("{\"summary\": {\"sub_runs\": %d, \"flows_started\": %" PRIu64
                ", \"flows_completed\": %" PRIu64
                ", \"short_p99_slowdown\": %.17g, \"short_n\": %zu"
                ", \"long_mean_slowdown\": %.17g, \"long_n\": %zu"
                ", \"sim_digest\": \"%016" PRIx64 "\"}}\n",
                distinct, started, completed, f.short_p99, f.short_n,
                f.long_mean, f.long_n, d.value());
  }
  if (trace != 0 && !spans.write(out_dir + "/spans.json")) {
    std::fprintf(stderr, "bfc_perfbench: cannot write %s/spans.json\n",
                 out_dir.c_str());
    ok = false;
  }

  // Resolved engine configuration. BFC_* is cleared above, so stealing
  // follows the engine's defaults: on for multi-shard channel runs on a
  // multi-core host, and the cooperative single-thread scheduler only on
  // a 1-core host.
  const unsigned hw = std::thread::hardware_concurrency();
  const int shards = shards_for(*w);
  std::printf("{\"env\": {\"nproc\": %u, \"cpu_model\": %s, \"shards\": %d, "
              "\"sync\": %s, \"steal\": %s, \"coop\": %s}}\n",
              hw, json_str(cpu_model()).c_str(), shards,
              json_str(sync).c_str(),
              shards > 1 && hw > 1 ? "true" : "false",
              shards > 1 && hw <= 1 ? "true" : "false");
  return ok ? 0 : 1;
}
