// Microbenchmarks for the core substrates: spatial index, system
// construction, weight evaluation, interference/sensing graph builds.
// These are the inner loops every scheduler leans on.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numeric>

#include "core/weight.h"
#include "graph/interference_graph.h"
#include "workload/scenario.h"

namespace {

using namespace rfid;

workload::Scenario scaled(int readers, int tags) {
  workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  sc.deploy.num_readers = readers;
  sc.deploy.num_tags = tags;
  return sc;
}

/// `scaled` with the region grown as √readers, holding the paper's reader
/// density (50 per 100×100) — the city_scale deployment shape.
workload::Scenario atPaperDensity(int readers, int tags) {
  workload::Scenario sc = scaled(readers, tags);
  sc.deploy.region_side = 100.0 * std::sqrt(readers / 50.0);
  return sc;
}

/// Times `core::System` construction alone on a fixed deployment of `sc`.
void systemBuild(benchmark::State& state, const workload::Scenario& sc) {
  const core::System proto = workload::makeSystem(sc, 8);
  const std::vector<core::Reader> readers(proto.readers().begin(),
                                          proto.readers().end());
  const std::vector<core::Tag> tags(proto.tags().begin(), proto.tags().end());
  for (auto _ : state) {
    core::System sys(readers, tags);
    benchmark::DoNotOptimize(sys.numTagBits());
  }
  state.SetItemsProcessed(state.iterations() *
                          (proto.numReaders() + proto.numTags()));
}

void BM_SystemConstruction(benchmark::State& state) {
  const auto sc = scaled(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)) * 24);
  for (auto _ : state) {
    core::System sys = workload::makeSystem(sc, 1);
    benchmark::DoNotOptimize(sys.numTags());
  }
}
BENCHMARK(BM_SystemConstruction)->Arg(50)->Arg(200)->Arg(800);

// Construction throughput on a fixed deployment: spatial grids, counting-
// sort CSR build + Morton SFC reorder + blocked-bitmap build + interference
// rows, the per-candidate cost of any outer loop that evaluates many
// Systems (deployment optimization).  BM_SystemConstruction above includes
// deployment *generation*; these isolate the index builds.
//
// At constant (paper) density, so items/s measures how the build scales: a
// build linear in readers + tags keeps it flat as n grows.
void BM_SystemBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  systemBuild(state, atPaperDensity(n, n * 24));
}
BENCHMARK(BM_SystemBuild)->Arg(200)->Arg(800)->Arg(4000)->Arg(20000);

// The same build in a fixed 100×100 region: a density sweep, where every
// disk holds more tags and readers as n grows.
void BM_SystemBuildDensitySweep(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  systemBuild(state, scaled(n, n * 24));
}
BENCHMARK(BM_SystemBuildDensitySweep)->Arg(200)->Arg(800)->Arg(4000);

void BM_SpatialGridQuery(benchmark::State& state) {
  const auto sc = scaled(50, static_cast<int>(state.range(0)));
  const core::System sys = workload::makeSystem(sc, 2);
  std::vector<geom::Vec2> pts;
  for (const core::Tag& t : sys.tags()) pts.push_back(t.pos);
  const geom::SpatialGrid grid(pts, 4.0);
  std::vector<int> out;
  int i = 0;
  for (auto _ : state) {
    out.clear();
    grid.queryDisk(sys.reader(i % sys.numReaders()).pos, 4.0, out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_SpatialGridQuery)->Arg(1200)->Arg(12000)->Arg(120000);

void BM_WeightEvaluation(benchmark::State& state) {
  const auto sc = scaled(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)) * 24);
  const core::System sys = workload::makeSystem(sc, 3);
  // A plausible mid-size feasible set: greedy independent fill.
  std::vector<int> x;
  for (int v = 0; v < sys.numReaders(); ++v) {
    bool ok = true;
    for (const int u : x) ok = ok && sys.independent(u, v);
    if (ok) x.push_back(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.weight(x));
  }
}
BENCHMARK(BM_WeightEvaluation)->Arg(50)->Arg(200)->Arg(800);

void BM_WeightEvaluatorPushPop(benchmark::State& state) {
  const auto sc = scaled(50, 1200);
  const core::System sys = workload::makeSystem(sc, 4);
  core::WeightEvaluator eval(sys);
  int v = 0;
  for (auto _ : state) {
    eval.push(v % sys.numReaders());
    benchmark::DoNotOptimize(eval.weight());
    eval.pop();
    ++v;
  }
}
BENCHMARK(BM_WeightEvaluatorPushPop);

// The selection round both greedy schedulers run to exhaustion: take the
// argmax marginal delta, commit, repeat while positive.  Reference rescans
// every reader per pick; the lazy queue pays one inverted-index walk per
// commit (docs/performance.md).  Both variants make identical picks.
void BM_GreedySelectionReference(benchmark::State& state) {
  const auto sc = scaled(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)) * 24);
  const core::System sys = workload::makeSystem(sc, 7);
  const int n = sys.numReaders();
  for (auto _ : state) {
    core::WeightEvaluator eval(sys);
    std::vector<char> open(static_cast<std::size_t>(n), 1);
    while (true) {
      int best = -1;
      int bw = 0;
      for (int v = 0; v < n; ++v) {
        if (open[static_cast<std::size_t>(v)] == 0) continue;
        const int d = eval.peekDelta(v);
        if (d > bw) {
          bw = d;
          best = v;
        }
      }
      if (best < 0) break;
      eval.push(best);
      open[static_cast<std::size_t>(best)] = 0;
    }
    benchmark::DoNotOptimize(eval.weight());
  }
}
BENCHMARK(BM_GreedySelectionReference)->Arg(200)->Arg(800)->Arg(2000);

void BM_GreedySelectionLazy(benchmark::State& state) {
  const auto sc = scaled(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)) * 24);
  const core::System sys = workload::makeSystem(sc, 7);
  const int n = sys.numReaders();
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  core::StandaloneWeightCache cache;
  core::LazyGreedyQueue queue;
  for (auto _ : state) {
    core::WeightEvaluator eval(sys);
    std::vector<char> open(static_cast<std::size_t>(n), 1);
    cache.sync(sys);
    queue.beginRound(eval, all, cache.weights());
    while (true) {
      const int best = queue.pickBest(open);
      if (best < 0) break;
      eval.push(best);
      queue.invalidate(best);
      open[static_cast<std::size_t>(best)] = 0;
    }
    benchmark::DoNotOptimize(eval.weight());
  }
}
BENCHMARK(BM_GreedySelectionLazy)->Arg(200)->Arg(800)->Arg(2000);

// Args: readers, then tags for the n=100k/m=1M point, which runs at the
// paper's density (city_scale's deployment); the small points keep the
// fixed 100×100 region with as many tags as readers.
void BM_InterferenceGraphBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto sc = state.range(1) == 0
                      ? scaled(n, n)
                      : atPaperDensity(n, static_cast<int>(state.range(1)));
  const core::System sys = workload::makeSystem(sc, 5);
  for (auto _ : state) {
    graph::InterferenceGraph g(sys);
    benchmark::DoNotOptimize(g.numEdges());
  }
}
BENCHMARK(BM_InterferenceGraphBuild)
    ->Args({50, 0})
    ->Args({200, 0})
    ->Args({800, 0})
    ->Args({100000, 1000000});

void BM_SensingGraphBuild(benchmark::State& state) {
  const auto sc = scaled(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(0)));
  const core::System sys = workload::makeSystem(sc, 6);
  for (auto _ : state) {
    auto g = graph::buildSensingGraph(sys);
    benchmark::DoNotOptimize(g.numEdges());
  }
}
BENCHMARK(BM_SensingGraphBuild)->Arg(50)->Arg(200)->Arg(800);

}  // namespace

BENCHMARK_MAIN();
