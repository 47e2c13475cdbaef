// Micro-benchmark of the SIMD selection kernel (core/kernels): the
// weighted utility row sum the plan compiler and StreamingTopK::Push
// run, timed for the scalar reference AND the runtime-dispatched table
// (AVX2/NEON where the host has them).
//
// Every dispatched timing doubles as a determinism check: the timed
// outputs are compared bit-for-bit against the scalar reference over
// the same data, and any difference is counted in the record's
// `mismatches` param — a correctness key check_bench.py pins to zero,
// so a kernel that silently drifts from the canonical blocked order
// fails CI even if it got faster. The dispatched records also gate
// throughput (qps = kernel invocations/sec) against the checked-in
// baseline; scalar records are emitted for the human speedup column.
//
// Self-contained on purpose (no Google Benchmark): fixed rep counts,
// preallocated inputs, results folded into a sink so nothing is
// dead-code-eliminated. Under OPTSELECT_KERNELS=scalar the dispatched
// rows time the scalar table and the speedup column reads 1.0x — the
// sanitizer/forced-scalar smoke still exercises every code path.
//
//   bench_micro_core [rep_scale]
//
// rep_scale (default 1.0) multiplies every rep count — drop it to 0.1
// for sanitizer smokes, raise it for stable numbers on quiet hosts.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/kernels/kernels.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace optselect;  // NOLINT(build/namespaces)

std::vector<double> RandomDoubles(util::Rng* rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->UniformDouble();
  return v;
}

/// One timed + checked primitive run: `body(ops, sink)` executes `reps`
/// passes over the preallocated data with the given kernel table.
struct KernelTiming {
  double wall_ms = 0;
  double ops_per_sec = 0;  ///< kernel invocations (not reps) per second
  double sink = 0;         ///< fold of every result; defeats DCE
};

template <typename Body>
KernelTiming TimeKernel(const core::kernels::Ops& ops, size_t reps,
                        size_t calls_per_rep, const Body& body) {
  KernelTiming t;
  util::WallTimer timer;
  for (size_t r = 0; r < reps; ++r) t.sink += body(ops);
  t.wall_ms = timer.ElapsedMillis();
  double calls = static_cast<double>(reps * calls_per_rep);
  t.ops_per_sec = t.wall_ms > 0 ? 1000.0 * calls / t.wall_ms : 0.0;
  return t;
}

struct BenchContext {
  bench::BenchJsonWriter* json;
  util::TablePrinter* table;
  size_t* total_mismatches;
};

/// Emits the scalar + dispatched records for one primitive. `run`
/// returns the timing for a kernel table; `check` counts bitwise
/// scalar-vs-dispatched output differences over the same data.
template <typename Run, typename Check>
void Record(const BenchContext& ctx, const std::string& name,
            const std::vector<std::pair<std::string, double>>& shape,
            const Run& run, const Check& check) {
  const core::kernels::Ops& scalar = core::kernels::Scalar();
  const core::kernels::Ops& active = core::kernels::Active();
  KernelTiming st = run(scalar);
  KernelTiming at = run(active);
  size_t mismatches = check();
  *ctx.total_mismatches += mismatches;

  double speedup = at.ops_per_sec > 0 && st.ops_per_sec > 0
                       ? at.ops_per_sec / st.ops_per_sec
                       : 0.0;
  ctx.table->AddRow(
      {name, active.name, util::TablePrinter::Num(st.ops_per_sec / 1e6, 2),
       util::TablePrinter::Num(at.ops_per_sec / 1e6, 2),
       util::TablePrinter::Num(speedup, 2),
       util::TablePrinter::Num(static_cast<double>(mismatches), 0)});

  std::vector<std::pair<std::string, double>> params = shape;
  params.emplace_back("mismatches", static_cast<double>(mismatches));
  // Scalar reference row: ungated context for the speedup column.
  ctx.json->Add(name + "/scalar", shape, st.wall_ms, st.ops_per_sec,
                {{"target", "scalar"}});
  // Dispatched row: qps and mismatches both gate against the baseline.
  ctx.json->Add(name, params, at.wall_ms, at.ops_per_sec,
                {{"target", active.name}});
}

}  // namespace

int main(int argc, char** argv) {
  double rep_scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  if (!(rep_scale > 0)) {
    std::fprintf(stderr, "usage: %s [rep_scale > 0]\n", argv[0]);
    return 2;
  }
  auto scaled = [rep_scale](size_t reps) {
    size_t r = static_cast<size_t>(static_cast<double>(reps) * rep_scale);
    return r == 0 ? size_t{1} : r;
  };

  std::printf("kernel dispatch target: %s\n", core::kernels::ActiveName());

  bench::BenchJsonWriter json("micro_core");
  util::TablePrinter table;
  table.SetHeader({"kernel", "target", "scalar Mops", "dispatched Mops",
                   "speedup", "mismatches"});
  size_t total_mismatches = 0;
  BenchContext ctx{&json, &table, &total_mismatches};
  util::Rng rng(2011);

  // ---- weighted_row_sum: Σ_j P(q'_j|q)·U[i][j] over utility rows -----
  {
    const size_t n = 1024, m = 32;
    std::vector<double> rows = RandomDoubles(&rng, n * m);
    std::vector<double> prob = RandomDoubles(&rng, m);
    auto run = [&](const core::kernels::Ops& ops) {
      return TimeKernel(ops, scaled(2000), n,
                        [&](const core::kernels::Ops& o) {
                          double acc = 0;
                          for (size_t i = 0; i < n; ++i) {
                            acc += o.weighted_row_sum(rows.data() + i * m,
                                                      prob.data(), m);
                          }
                          return acc;
                        });
    };
    auto check = [&] {
      size_t bad = 0;
      for (size_t i = 0; i < n; ++i) {
        double want = core::kernels::Scalar().weighted_row_sum(
            rows.data() + i * m, prob.data(), m);
        double got = core::kernels::Active().weighted_row_sum(
            rows.data() + i * m, prob.data(), m);
        if (got != want) ++bad;
      }
      return bad;
    };
    Record(ctx, "weighted_row_sum",
           {{"n", static_cast<double>(n)}, {"m", static_cast<double>(m)}},
           run, check);
  }

  std::printf("%s", table.ToString().c_str());
  if (total_mismatches > 0) {
    std::fprintf(stderr,
                 "FATAL: %zu dispatched kernel outputs differ from the "
                 "scalar reference\n",
                 total_mismatches);
  }

  util::Status s = json.WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_micro_core.json (%zu records)\n", json.size());
  return total_mismatches == 0 ? 0 : 1;
}
