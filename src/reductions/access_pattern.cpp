#include "reductions/access_pattern.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "reductions/kernels.hpp"
#include "reductions/reduction_op.hpp"

namespace sapp {

void run_sequential(const ReductionInput& in, std::span<double> out) {
  SAPP_REQUIRE(in.consistent(), "values/pattern size mismatch");
  SAPP_REQUIRE(out.size() == in.pattern.dim, "output size mismatch");
  const std::uint64_t* ptr = in.pattern.refs.row_ptr().data();
  const std::uint32_t* idx = in.pattern.refs.indices().data();
  const double* vals = in.values.data();
  double* o = out.data();
  kernels::for_each_scaled(
      kernels::active(), 0, in.pattern.iterations(), in.pattern.body_flops,
      [=](std::size_t i, double s) {
        for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j)
          o[idx[j]] += vals[j] * s;
      });
}

std::size_t count_distinct(const AccessPattern& p) {
  std::vector<bool> seen(p.dim, false);
  std::size_t distinct = 0;
  for (std::uint32_t e : p.refs.indices()) {
    SAPP_ASSERT(e < p.dim, "element out of range");
    if (!seen[e]) {
      seen[e] = true;
      ++distinct;
    }
  }
  return distinct;
}

std::size_t sum_iteration_distinct(const AccessPattern& p) {
  std::size_t total = 0;
  std::vector<std::uint32_t> scratch;
  for (std::size_t i = 0; i < p.refs.rows(); ++i) {
    const auto row = p.refs.row(i);
    scratch.assign(row.begin(), row.end());
    std::sort(scratch.begin(), scratch.end());
    total += static_cast<std::size_t>(
        std::unique(scratch.begin(), scratch.end()) - scratch.begin());
  }
  return total;
}

}  // namespace sapp
