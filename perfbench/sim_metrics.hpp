// Simulated (paper-fidelity) metrics and the simulation digest, computed
// from an ExperimentResult alone. Pure functions, so the benchmark's
// self-test can pin the pooling edges and the digest's stability.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/percentile.hpp"

namespace perfbench {

// Short flows pool the first four paper_size_bins (<= 8,891 B); long flows
// are every bin whose lower edge is >= 281,171 B. Both values must be bin
// edges, or the pooled metrics would silently mix partial bins.
constexpr std::uint64_t kShortMaxBytes = 8'891;
constexpr std::uint64_t kLongMinBytes = 281'171;

struct Fidelity {
  bool edges_ok = false;     // both pooling edges are paper_size_bins edges
  double short_p99 = 0;      // p99 slowdown of non-incast flows <= 8,891 B
  std::size_t short_n = 0;
  double long_mean = 0;      // mean slowdown of non-incast flows > 281,171 B
  std::size_t long_n = 0;
};

inline Fidelity fidelity(const std::vector<bfc::SizeBin>& bins) {
  Fidelity f;
  bool short_edge = false, long_edge = false;
  std::vector<double> shorts;
  double long_sum = 0;
  std::uint64_t lo = 0;  // previous bin's upper edge (bins are ascending)
  for (const bfc::SizeBin& b : bins) {
    short_edge = short_edge || b.hi_bytes == kShortMaxBytes;
    long_edge = long_edge || b.hi_bytes == kLongMinBytes;
    if (b.hi_bytes <= kShortMaxBytes) {
      shorts.insert(shorts.end(), b.slowdowns.begin(), b.slowdowns.end());
    } else if (lo >= kLongMinBytes) {
      for (double s : b.slowdowns) long_sum += s;
      f.long_n += b.slowdowns.size();
    }
    lo = b.hi_bytes;
  }
  f.edges_ok = short_edge && long_edge;
  f.short_n = shorts.size();
  f.short_p99 = bfc::percentile(shorts, 99);
  f.long_mean = f.long_n > 0 ? long_sum / static_cast<double>(f.long_n) : 0;
  return f;
}

// FNV-1a over the bit patterns of every simulated statistic of a result.
// Scheduling telemetry (events_stolen, clock waits, per-shard event
// splits, wall time) is excluded: it legitimately varies run to run.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  template <typename T>
  void add(const std::vector<T>& vs) {
    add(static_cast<std::uint64_t>(vs.size()));
    for (const T& v : vs) add(v);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t sim_digest(const bfc::ExperimentResult& r) {
  Digest d;
  d.add(r.scheme);
  d.add(r.flows_started);
  d.add(r.flows_completed);
  d.add(r.drops);
  d.add(r.buffer_samples_mb);
  d.add(r.pfc_frac_tor_to_spine);
  d.add(r.pfc_frac_spine_to_tor);
  d.add(r.collision_frac);
  for (const bfc::SizeBin& b : r.bins) {
    // Samples are sorted first: the digest pins the distribution, not the
    // order completions happened to be folded in.
    std::vector<double> s(b.slowdowns);
    std::sort(s.begin(), s.end());
    d.add(b.hi_bytes);
    d.add(s);
  }
  d.add(r.p99_slowdown);
  d.add(r.bfc.pauses);
  d.add(r.bfc.resumes);
  d.add(r.bfc.overflow_packets);
  d.add(r.acks_data_path);
  d.add(r.acks_deferred);
  d.add(r.blackholed);
  d.add(r.reroutes);
  d.add(r.unreachable_parks);
  d.add(r.goodput_bytes);
  d.add(r.egress_ports_hw);
  d.add(r.ingress_ports_hw);
  d.add(r.reclaim_sweeps);
  d.add(r.reclaimed_ports);
  d.add(r.table_chunks);
  d.add(r.receiver_slots_hw);
  d.add(r.nic_class_transitions);
  return d.value();
}

}  // namespace perfbench
