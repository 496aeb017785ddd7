// Self-test of the benchmark's own C++ logic: slowdown pooling at the
// paper_size_bins edges and the simulation digest's stability. Run via
// `python3 perfbench/run.py --self-test` (or directly after a build).
// Exits nonzero on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/topology.hpp"
#include "harness/experiment.hpp"
#include "sim_metrics.hpp"
#include "workload/size_dist.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++g_failures;
  }
}

std::size_t bin_of(const std::vector<bfc::SizeBin>& bins, std::uint64_t bytes) {
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bytes <= bins[i].hi_bytes) return i;
  }
  return bins.size() - 1;
}

void test_pooling_edges() {
  std::vector<bfc::SizeBin> bins = bfc::paper_size_bins();
  // One sample per probed size; the slowdown encodes which size it was.
  // fill_slowdowns places a flow of `bytes` in the first bin with
  // bytes <= hi_bytes, so the edges themselves belong to the lower bin.
  const struct {
    std::uint64_t bytes;
    double slowdown;
  } probes[] = {
      {1, 2.0},        {281, 3.0},      {8'891, 4.0},   // short
      {8'892, 100.0},  {281'171, 200.0},                // neither
      {281'172, 10.0}, {28'117'067, 30.0},              // long
  };
  for (const auto& p : probes) {
    bins[bin_of(bins, p.bytes)].slowdowns.push_back(p.slowdown);
  }
  const perfbench::Fidelity f = perfbench::fidelity(bins);
  expect(f.edges_ok, "paper_size_bins has the 8,891 B and 281,171 B edges");
  expect(f.short_n == 3, "short pool holds exactly the flows <= 8,891 B");
  expect(f.short_p99 == 3.0,
         "short p99 is the percentile() of the pooled short samples");
  expect(f.long_n == 2, "long pool holds exactly the flows > 281,171 B");
  expect(f.long_mean == 20.0, "long mean averages the pooled long samples");

  // An edge that moves out from under the pooling must be flagged.
  std::vector<bfc::SizeBin> moved = bfc::paper_size_bins();
  for (bfc::SizeBin& b : moved) {
    if (b.hi_bytes == perfbench::kShortMaxBytes) b.hi_bytes = 9'000;
  }
  expect(!perfbench::fidelity(moved).edges_ok,
         "a moved pooling edge is reported");

  const perfbench::Fidelity empty = perfbench::fidelity(bfc::paper_size_bins());
  expect(empty.short_n == 0 && empty.short_p99 == 0 && empty.long_mean == 0,
         "empty bins pool to zero samples");
}

bfc::ExperimentResult tiny_run(int shards) {
  const bfc::TopoGraph topo =
      bfc::TopoGraph::fat_tree(bfc::FatTreeConfig::t1());
  bfc::ExperimentConfig cfg;
  cfg.scheme = bfc::Scheme::kBfc;
  cfg.traffic.dist = &bfc::SizeDist::by_name("google");
  cfg.traffic.load = 0.6;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = bfc::microseconds(20);
  cfg.traffic.seed = 7;
  cfg.drain = bfc::microseconds(200);
  cfg.shards = shards;
  return bfc::run_experiment(topo, cfg);
}

void test_digest() {
  bfc::ExperimentResult a;
  a.scheme = "BFC";
  a.flows_started = 10;
  a.flows_completed = 9;
  a.bins = bfc::paper_size_bins();
  a.bins[0].slowdowns = {1.0, 2.0, 3.0};
  a.buffer_samples_mb = {0.5, 0.25};
  const std::uint64_t d = perfbench::sim_digest(a);
  expect(d == perfbench::sim_digest(a), "digest is a pure function");

  bfc::ExperimentResult reordered = a;
  reordered.bins[0].slowdowns = {3.0, 1.0, 2.0};
  expect(perfbench::sim_digest(reordered) == d,
         "digest ignores the order samples were folded in");

  bfc::ExperimentResult scheduling = a;
  scheduling.wall_sec = 12.5;
  scheduling.events_stolen = 99;
  scheduling.clock_waits = 7;
  scheduling.shard_events = {1, 2};
  expect(perfbench::sim_digest(scheduling) == d,
         "digest ignores scheduling telemetry and wall time");

  bfc::ExperimentResult moved_sample = a;
  moved_sample.buffer_samples_mb[1] = 0.2500001;
  bfc::ExperimentResult moved_bin = a;
  moved_bin.bins[1].slowdowns.push_back(1.0);
  bfc::ExperimentResult moved_count = a;
  moved_count.flows_completed = 10;
  expect(perfbench::sim_digest(moved_sample) != d &&
             perfbench::sim_digest(moved_bin) != d &&
             perfbench::sim_digest(moved_count) != d,
         "digest changes with any simulated statistic");

  // The same simulation at 1 and 2 shards, and twice at 2 shards, must
  // hash alike: the engine is bit-deterministic at any shard count.
  const std::uint64_t one = perfbench::sim_digest(tiny_run(1));
  const std::uint64_t two = perfbench::sim_digest(tiny_run(2));
  expect(one == two, "digest is identical at 1 and 2 shards");
  expect(two == perfbench::sim_digest(tiny_run(2)),
         "digest is identical across repeated 2-shard runs");
}

}  // namespace

int main() {
  test_pooling_edges();
  test_digest();
  if (g_failures == 0) std::printf("perfbench_selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
