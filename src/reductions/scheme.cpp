#include "reductions/scheme.hpp"

#include "common/assert.hpp"

namespace sapp {

SchemeResult Scheme::run(const ReductionInput& in, ThreadPool& pool,
                         std::span<double> out) const {
  SAPP_REQUIRE(in.consistent(), "values/pattern size mismatch");
  SAPP_REQUIRE(out.size() == in.pattern.dim, "output size mismatch");
  Timer t;
  const auto pl = plan(in.pattern, pool.size());
  const double inspect = t.seconds();
  SchemeResult r = execute(pl.get(), in, pool, out);
  r.inspect_s = inspect;
  return r;
}

SchemeResult Scheme::execute_checked(const SchemePlan* plan,
                                     const ReductionInput& in,
                                     ThreadPool& pool, std::span<double> out,
                                     const CheckerOptions& check,
                                     CheckReport* report,
                                     FaultInjector* injector, FaultSite site,
                                     CheckOp op,
                                     SampledPositions* positions) const {
  SAPP_REQUIRE(report != nullptr, "execute_checked needs a report sink");
  // One checker per thread, reused across invocations: its buffers are
  // sized by the largest dim seen, and reusing them avoids re-faulting
  // megabytes of accumulator pages on every checked execution (the single
  // largest checking cost on bandwidth-bound hosts). begin() re-reads the
  // options, so per-call rates/seeds/ops behave as if freshly constructed.
  static thread_local ReductionChecker checker{CheckerOptions{}};
  checker.configure(check, op);
  checker.begin(in, out, positions);
  SchemeResult r = execute(plan, in, pool, out);
  if (injector != nullptr) injector->corrupt_one(site, out);
  *report = checker.verify(out);
  r.check_s = report->check_s;
  return r;
}

}  // namespace sapp
