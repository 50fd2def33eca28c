// The full SmartApps pipeline, compiler to runtime (Fig. 1):
//
//   1. the "static compiler" sees the loop's IR and recognizes which
//      arrays are reduction variables (§4 footnote rules),
//   2. at run time, the inspector evaluates the subscripts against the
//      actual input data (the part "not statically available"),
//   3. the adaptive runtime characterizes the extracted pattern, selects
//      a scheme and executes it.
//
// The loop here is Fig. 5's shape with a second, illegal statement mixed
// in to show the analysis catching it.
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "frontend/loop_ir.hpp"

int main() {
  using namespace sapp;
  using namespace sapp::frontend;

  // --- The program's loop, as the compiler sees it:
  //   for i in 0..N:  w[x[i]] += force[i];  hist[bin[i]] += 1;
  LoopNest loop;
  loop.name = "assemble";
  loop.iterations = 120000;
  loop.body.push_back({"w", IndexExpr::indirect("x"),
                       Statement::Op::kPlusAssign, ValueExpr::input("force")});
  loop.body.push_back({"hist", IndexExpr::indirect("bin"),
                       Statement::Op::kPlusAssign, ValueExpr::computed()});

  const LoopAnalysis analysis = analyze(loop);
  std::printf("compiler analysis of '%s':\n", loop.name.c_str());
  for (const auto& aa : analysis.arrays)
    std::printf("  %-5s : %s%s\n", aa.array.c_str(),
                aa.is_reduction ? "reduction variable" : "NOT a reduction",
                aa.reason.empty() ? "" : (" (" + aa.reason + ")").c_str());
  std::printf("  iteration replication legal: %s\n\n",
              analysis.iteration_replication_legal ? "yes" : "no");

  // --- Run time: the input data arrives; the inspector extracts the
  // pattern for the 'w' reduction.
  constexpr std::size_t kDim = 60000;
  Rng rng(2024);
  Bindings bindings;
  auto& x = bindings.index_arrays["x"];
  auto& bin = bindings.index_arrays["bin"];
  auto& force = bindings.value_arrays["force"];
  x.reserve(loop.iterations);
  for (std::size_t i = 0; i < loop.iterations; ++i) {
    x.push_back(static_cast<std::uint32_t>(rng.zipf(kDim, 0.5)));
    bin.push_back(static_cast<std::uint32_t>(rng.below(256)));
    force.push_back(rng.uniform(-1.0, 1.0));
  }

  const ReductionInput w_input =
      extract_input(loop, analysis, "w", kDim, bindings);
  const ReductionInput hist_input =
      extract_input(loop, analysis, "hist", 256, bindings);

  // --- The adaptive runtime takes it from here.
  Runtime rt;
  std::vector<double> w(kDim, 0.0), hist(256, 0.0);
  (void)rt.submit("assemble.w", w_input, w);
  (void)rt.submit("assemble.hist", hist_input, hist);
  std::printf("%s", rt.report().c_str());

  // Sanity against sequential execution.
  std::vector<double> ref(kDim, 0.0);
  run_sequential(w_input, ref);
  double err = 0.0;
  for (std::size_t e = 0; e < kDim; ++e) err = std::max(err, std::abs(ref[e] - w[e]));
  std::printf("max |err| vs sequential: %.2e\n", err);
  return err < 1e-6 ? 0 : 1;
}
