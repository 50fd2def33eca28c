#include "check/checker.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "common/assert.hpp"
#include "common/timer.hpp"

namespace sapp {

namespace {

/// 2^40 fixed-point grid of the sum checksum. The quantization is exact
/// to half a grid step for any contribution with |c| < 2^22 (far above
/// every workload in the repository); larger magnitudes saturate, which
/// only ever widens the failure report, never crashes.
constexpr double kQuantScale = 0x1p40;
constexpr double kQuantInv = 0x1p-40;
constexpr double kQuantClamp = 0x1p62;

inline std::int64_t quantize(double v) {
  const double x = std::clamp(v * kQuantScale, -kQuantClamp, kQuantClamp);
#if defined(__x86_64__)
  // llrint's own instruction, inline: glibc's llrint is this conversion
  // behind a libm call, which cost more than the rest of a replayed
  // reference.
  return _mm_cvtsd_si64(_mm_set_sd(x));
#else
  return std::llrint(x);
#endif
}

/// Finalizing 64-bit mixer (splitmix64 tail): the sampling predicate and
/// the checksum fold both need a hash whose low bits are uniform.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t element_hash(std::uint64_t seed, std::uint64_t element) {
  return mix64(seed ^ (element + 1) * 0x9E3779B97F4A7C15ull);
}

inline double combine_witness(CheckOp op, double a, double b) {
  return op == CheckOp::kMin ? std::min(a, b) : std::max(a, b);
}

/// threshold = rate·2^64, computed in double; rate < 1 keeps it in range.
/// Hoisted out of the per-block loops: ldexp is a libm call, and paying
/// it per membership query dominated the whole selection pass.
inline std::uint64_t sample_threshold(double rate) {
  return static_cast<std::uint64_t>(std::ldexp(rate, 64));
}

/// int64 → double is one hardware convert; the generic __int128 path is a
/// libgcc call. Every in-range value converts identically either way, and
/// slot sums leave the int64 range only under deliberate saturation abuse.
inline double i128_to_double(__int128 v) {
  if (v >= static_cast<__int128>(std::numeric_limits<std::int64_t>::min()) &&
      v <= static_cast<__int128>(std::numeric_limits<std::int64_t>::max()))
    return static_cast<double>(static_cast<std::int64_t>(v));
  return static_cast<double>(v);
}

/// Saturating add of non-negative magnitudes.
inline std::uint64_t sat_add_u64(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

/// |q| without overflow at INT64_MIN.
inline std::uint64_t magnitude(std::int64_t q) {
  return q < 0 ? static_cast<std::uint64_t>(-(q + 1)) + 1
               : static_cast<std::uint64_t>(q);
}

/// Sampling block: one membership hash covers 2^kBlockShift consecutive
/// elements, and a sampled block's elements occupy consecutive slots.
constexpr unsigned kBlockShift = 4;
constexpr std::size_t kBlock = std::size_t{1} << kBlockShift;

/// Fill `sel`'s block selection for (dim, rate) unless it already holds
/// it. Recorded slots of an older selection never replay: the Key holds
/// dim and rate.
void select_blocks(SampledPositions& sel, std::size_t dim, double rate) {
  if (sel.sel_valid && sel.sel_dim == dim && sel.sel_rate == rate) return;
  // One hash decides a whole 16-element block, so this pass is O(dim/16)
  // plus O(sampled).
  const std::size_t nblocks = (dim + kBlock - 1) >> kBlockShift;
  sel.block_base.assign(nblocks, SampledPositions::kUnsampled);
  sel.elements.clear();
  const bool all = rate >= 1.0;
  const bool none = !all && rate <= 0.0;
  const std::uint64_t threshold = all || none ? 0 : sample_threshold(rate);
  sel.elements.reserve(
      all ? dim
          : static_cast<std::size_t>(static_cast<double>(dim) *
                                     std::min(1.0, rate * 1.2)) +
                kBlock);
  for (std::size_t b = 0; b < nblocks && !none; ++b) {
    if (!all && element_hash(ReductionChecker::kSampleSeed, b) >= threshold)
      continue;
    sel.block_base[b] = static_cast<std::uint32_t>(sel.elements.size());
    const std::size_t e0 = b << kBlockShift;
    const std::size_t e1 = std::min(dim, e0 + kBlock);
    for (std::size_t e = e0; e < e1; ++e)
      sel.elements.push_back(static_cast<std::uint32_t>(e));
  }
  sel.sel_dim = dim;
  sel.sel_rate = rate;
  sel.sel_valid = true;
}

/// The per-slot accumulators of one begin(), passed by value so the fold
/// loops keep the pointers in registers.
struct Accum {
  CheckOp op;
  std::uint32_t* counts;
  __int128* qsum;
  std::uint64_t* qabs;
  double* witness;

  /// Fold contribution `c` into `slot`. First touch initializes the
  /// (deliberately uninitialized) accumulators; the count is the guard.
  void add(std::uint32_t slot, double c) const {
    const std::uint32_t seen = counts[slot]++;
    if (op == CheckOp::kSum) {
      const std::int64_t q = quantize(c);
      const std::uint64_t a = magnitude(q);
      if (seen == 0) {
        qsum[slot] = q;
        qabs[slot] = a;
      } else {
        qsum[slot] += q;
        qabs[slot] = sat_add_u64(qabs[slot], a);
      }
    } else {
      witness[slot] = seen == 0 ? c : combine_witness(op, witness[slot], c);
    }
  }
};

/// Scan of every reference through the block map. With `record` it also
/// appends each sampled reference (position, slot, iteration scale) in
/// scan order, then stably sorts the record by slot: the cache fill.
void fold_scan(const ReductionInput& in,
               std::span<const std::uint32_t> block_base,
               std::span<const double> scale, Accum acc,
               std::vector<SampledPositions::Ref>* record) {
  const auto& refs = in.pattern.refs;
  const double* vals = in.values.data();
  const auto& ptr = refs.row_ptr();
  const std::uint32_t* idx = refs.indices().data();
  const std::size_t iters = in.pattern.iterations();
  for (std::size_t i = 0; i < iters; ++i) {
    const double s = scale[i & 1023];
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
      const std::uint32_t e = idx[j];
      const std::uint32_t base = block_base[e >> kBlockShift];
      if (base == SampledPositions::kUnsampled) continue;
      const std::uint32_t slot =
          base + (e & static_cast<std::uint32_t>(kBlock - 1));
      if (record != nullptr)
        record->push_back({static_cast<std::uint32_t>(j), slot, s});
      acc.add(slot, vals[j] * s);
    }
  }
  if (record != nullptr)
    std::stable_sort(record->begin(), record->end(),
                     [](const SampledPositions::Ref& a,
                        const SampledPositions::Ref& b) {
                       return a.slot < b.slot;
                     });
}

/// Replay of recorded positions (cache hit), one slot's run at a time:
/// the run folds in registers and its slot state is stored once. The
/// integer sum state (count, exact sum, saturating magnitude) does not
/// depend on the order of a slot's contributions, and the stable sort
/// keeps each run in scan order for the min/max witness, so the state is
/// bitwise the full scan's.
void fold_replay(const ReductionInput& in,
                 std::span<const SampledPositions::Ref> recorded, Accum acc) {
  using Ref = SampledPositions::Ref;
  const double* vals = in.values.data();
  const Ref* r = recorded.data();
  const Ref* const end = r + recorded.size();
  // The value gathers are the replay's cost: a sampled reference's value
  // seldom shares a cache line with the one before it. Prefetching
  // kAhead references ahead keeps more of those misses in flight.
  constexpr std::ptrdiff_t kAhead = 16;
  const auto value = [vals, end](const Ref* at) {
    if (end - at > kAhead) __builtin_prefetch(vals + at[kAhead].pos);
    return vals[at->pos] * at->scale;
  };
  while (r != end) {
    const Ref* const run = r;
    const std::uint32_t slot = r->slot;
    if (acc.op == CheckOp::kSum) {
      __int128 qsum = 0;
      std::uint64_t qabs = 0;
      for (; r != end && r->slot == slot; ++r) {
        const std::int64_t q = quantize(value(r));
        qsum += q;
        qabs = sat_add_u64(qabs, magnitude(q));
      }
      acc.qsum[slot] = qsum;
      acc.qabs[slot] = qabs;
    } else {
      double w = value(r);
      for (++r; r != end && r->slot == slot; ++r)
        w = combine_witness(acc.op, w, value(r));
      acc.witness[slot] = w;
    }
    acc.counts[slot] = static_cast<std::uint32_t>(r - run);
  }
}

}  // namespace

bool ReductionChecker::slot_sampled(double rate, std::uint64_t element) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  return element_hash(kSampleSeed, element >> kBlockShift) <
         sample_threshold(rate);
}

std::size_t ReductionChecker::count_sampled(double rate, std::size_t dim) {
  if (rate >= 1.0) return dim;
  if (rate <= 0.0) return 0;
  const std::uint64_t threshold = sample_threshold(rate);
  const std::size_t nblocks = (dim + kBlock - 1) >> kBlockShift;
  std::size_t n = 0;
  for (std::size_t b = 0; b < nblocks; ++b)
    if (element_hash(kSampleSeed, b) < threshold)
      n += std::min(kBlock, dim - (b << kBlockShift));
  return n;
}

ReductionChecker::ReductionChecker(CheckerOptions opt, CheckOp op)
    : opt_(opt), op_(op) {}

std::span<const double> ReductionChecker::scale_table(unsigned body_flops) {
  // iteration_scale depends only on iter % 1024, so one 1024-entry table
  // replaces the per-iteration flops chain (the scheme still pays it; the
  // checker does not — this is what keeps the overhead a small fraction
  // of loop time). The table is cached across begins: the flops chain per
  // entry is expensive for device-model workloads.
  if (scale_.size() != 1024 || scale_flops_ != body_flops) {
    scale_.resize(1024);
    for (std::size_t k = 0; k < scale_.size(); ++k)
      scale_[k] = iteration_scale(k, body_flops);
    scale_flops_ = body_flops;
  }
  return scale_;
}

void ReductionChecker::begin(const ReductionInput& in,
                             std::span<const double> out,
                             SampledPositions* positions) {
  SAPP_REQUIRE(in.consistent(), "values/pattern size mismatch");
  SAPP_REQUIRE(out.size() == in.pattern.dim, "output size mismatch");
  Timer t;
  begun_ = true;
  const std::size_t dim = in.pattern.dim;
  const double rate = opt_.sample_rate;

  // --- Block selection (cached per site) and the pre-execution snapshot
  // of the sampled elements: O(rate·dim) in the steady state — the
  // unsampled majority of the output array is never touched.
  SampledPositions& cache = positions != nullptr ? *positions : own_positions_;
  select_blocks(cache, dim, rate);
  sel_ = &cache;
  const std::vector<std::uint32_t>& elements = cache.elements;
  const std::size_t n = elements.size();
  before_.resize(n);
  for (std::size_t s = 0; s < n; ++s) before_[s] = out[elements[s]];
  counts_.assign(n, 0);
  if (n > accum_cap_) {
    // Allocated for overwrite: slots are first-touch initialized in the
    // fold, so untouched slots never fault their accumulator pages.
    qsum_ = std::make_unique_for_overwrite<__int128[]>(n);
    qabs_ = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    witness_ = std::make_unique_for_overwrite<double[]>(n);
    accum_cap_ = n;
  }

  // --- Recompute contributions from the input stream, on this thread.
  // Recording pays off only for a partial sample of a pattern seen before
  // (the steady state of a serving site re-submitting its loop); a full
  // sample visits every reference anyway, so it is a plain scan.
  const std::size_t refs_total = in.pattern.refs.indices().size();
  const Accum acc{op_, counts_.data(), qsum_.get(), qabs_.get(),
                  witness_.get()};
  const bool cacheable =
      rate < 1.0 && refs_total <= std::numeric_limits<std::uint32_t>::max();
  refs_folded_ = refs_total;
  if (n == 0) {
    // No element is sampled: every reference would miss, so the pass
    // could change no state and is skipped.
    refs_folded_ = 0;
  } else if (!cacheable) {
    fold_scan(in, cache.block_base, scale_table(in.pattern.body_flops), acc,
              nullptr);
  } else if (const SampledPositions::Key key{in.pattern.refs.id(), dim, rate,
                                             in.pattern.body_flops};
             cache.valid && key == cache.key) {
    fold_replay(in, cache.refs, acc);
    refs_folded_ = cache.refs.size();
  } else {
    cache.key = key;
    cache.refs.clear();
    fold_scan(in, cache.block_base, scale_table(in.pattern.body_flops), acc,
              &cache.refs);
    cache.valid = true;
  }

  // --- Order-independent mod-2^64 fold over the per-slot integer state.
  // Slots that received no contribution are skipped: their state is a
  // constant, so folding them would only pad the checksum with hash work
  // (on sparse patterns most sampled slots are untouched). One mix64 per
  // touched slot; element and accumulator enter through distinct odd
  // multipliers so each diffuses independently.
  const std::uint64_t cs_seed = kSampleSeed ^ 0xC0DEull;
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (counts_[s] == 0) continue;
    const std::uint64_t item =
        op_ == CheckOp::kSum
            ? static_cast<std::uint64_t>(static_cast<unsigned __int128>(qsum_[s]))
            : std::bit_cast<std::uint64_t>(witness_[s]);
    sum += mix64(cs_seed ^
                 (elements[s] + 1) * 0x9E3779B97F4A7C15ull ^
                 item * 0xFF51AFD7ED558CCDull) +
           counts_[s];
  }
  checksum_ = sum;
  begin_s_ = t.seconds();
}

CheckReport ReductionChecker::verify(std::span<const double> out) const {
  SAPP_REQUIRE(begun_, "verify before begin");
  Timer t;
  CheckReport rep;
  const std::vector<std::uint32_t>& elements = sel_->elements;
  rep.slots_sampled = elements.size();
  rep.input_checksum = checksum_;
  rep.refs_folded = refs_folded_;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();

  for (std::size_t s = 0; s < elements.size(); ++s) {
    const std::uint32_t count = counts_[s];
    const double before = before_[s];
    const double after = out[elements[s]];
    // Fast pass-path: an untouched slot whose value is unchanged needs no
    // tolerance math — on sparse patterns that is most sampled slots.
    if (count == 0 && after == before) continue;
    rep.contributions += count;
    bool ok = true;
    if (op_ == CheckOp::kSum) {
      // expected = before + Σc on the 2^-40 grid. The tolerance covers
      //   (a) the scheme's legal reassociation of before and n
      //       contributions: ≤ (4+n)·eps·(|before| + Σ|c|) — the same
      //       bound the differential test suite uses;
      //   (b) the checker's quantization: ≤ n·2^-41 plus one rounding of
      //       each conversion.
      // Both padded ×2; derivation in docs/checking.md.
      // count == 0 here means the slot was corrupted without receiving a
      // contribution; its accumulators were never initialized, so the
      // expected value is the snapshot alone.
      const double qsumd =
          count == 0 ? 0.0 : i128_to_double(qsum_[s]) * kQuantInv;
      const double qabsd =
          count == 0 ? 0.0 : static_cast<double>(qabs_[s]) * kQuantInv;
      const double expected = before + qsumd;
      const double n = static_cast<double>(count);
      const double tol = (8.0 + 2.0 * n) * kEps *
                             (qabsd + std::abs(before) + std::abs(after)) +
                         (2.0 + n) * kQuantInv + 4 * kTiny;
      const double err = std::abs(after - expected);
      if (tol > 0.0)
        rep.max_rel_excess = std::max(rep.max_rel_excess, err / tol);
      ok = err <= tol;
    } else {
      // min/max are exact: out[e] must equal Op(before, witness) as a
      // value (== also accepts a ±0 sign flip, which reassociation of the
      // exact operator can legally produce).
      const double expected =
          count == 0 ? before : combine_witness(op_, before, witness_[s]);
      ok = after == expected;
    }
    if (!ok) {
      ++rep.slots_failed;
      if (rep.first_failed_slot == CheckReport::knpos)
        rep.first_failed_slot = elements[s];
    }
  }
  rep.passed = rep.slots_failed == 0;
  rep.check_s = begin_s_ + t.seconds();
  return rep;
}

}  // namespace sapp
