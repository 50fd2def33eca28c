#include "repro/context.hpp"

#include <cstdlib>
#include <thread>

namespace sapp::repro {

RunOptions RunOptions::from_env() {
  RunOptions o;
  if (const char* s = std::getenv("SAPP_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0.0 && v <= 1.0) o.scale = v;
  }
  // SAPP_FULL wins over SAPP_SCALE (same precedence as the original
  // bench_util.hpp helper).
  if (const char* full = std::getenv("SAPP_FULL");
      full != nullptr && full[0] == '1')
    o.scale = 1.0;
  if (const char* s = std::getenv("SAPP_THREADS"); s != nullptr) {
    const int v = std::atoi(s);
    if (v >= 1 && v <= 256) o.threads = static_cast<unsigned>(v);
  }
  return o;
}

RunContext::RunContext(RunOptions opt) : opt_(opt) {
  if (opt_.threads >= 1) {
    threads_ = opt_.threads;
  } else {
    // One software thread per hardware context. The previous default
    // (min(8, 2 x hw)) oversubscribed small containers 4x, which skews
    // exactly the fork-join and phase latencies the experiments measure;
    // the paper's 8-processor setup is requested explicitly with
    // SAPP_THREADS=8 / --threads 8 (see docs/reproducing.md).
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw != 0 ? hw : 2;
  }
  reps_ = opt_.reps >= 1 ? opt_.reps : 3;
  warmup_ = opt_.warmup >= 0 ? opt_.warmup : 1;
}

double RunContext::scale(double experiment_default) const {
  if (opt_.tiny)
    return std::clamp(experiment_default * 0.1, 0.01, 0.05);
  if (opt_.scale > 0.0) return opt_.scale;
  return experiment_default;
}

ThreadPool& RunContext::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

const MachineCoeffs& RunContext::coeffs() {
  if (!coeffs_)
    coeffs_ = std::make_unique<MachineCoeffs>(MachineCoeffs::calibrate(pool()));
  return *coeffs_;
}

RuntimeOptions RunContext::runtime_options() {
  RuntimeOptions o;
  o.threads = threads_;
  o.coeffs = coeffs();
  return o;
}

}  // namespace sapp::repro
