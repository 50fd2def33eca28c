#include "core/characterize.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "common/assert.hpp"

namespace sapp {

namespace {

/// Cache capacity behind the DIM measure: the paper's simulated L2 (512 KB).
constexpr std::size_t kCacheBytes = 512 * 1024;
/// The CH histogram's last bucket counts every element referenced at least
/// this many times.
constexpr std::size_t kChCap = 64;
/// Reference counts below this are binned for the Gini sum; the rare larger
/// ones are sorted.
constexpr std::size_t kCountBins = 1024;
/// An iteration up to this many references finds its distinct elements by
/// comparing each reference against its own earlier ones; a longer one
/// sorts a copy.
constexpr std::size_t kShortIteration = 64;

/// floor(e / blk) for any 32-bit e without a divide: the high word of
/// e · ceil(2^64 / blk) (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019). The multiplier needs a 65th bit when blk == 1.
class BlockDivider {
 public:
  explicit BlockDivider(std::size_t blk)
      : m_(static_cast<unsigned __int128>(
               std::numeric_limits<std::uint64_t>::max() / blk) +
           1) {}
  [[nodiscard]] std::size_t operator()(std::uint32_t e) const {
    return static_cast<std::size_t>((m_ * e) >> 64);
  }

 private:
  unsigned __int128 m_;
};

/// Gini coefficient of the per-element reference counts: 0 when every
/// referenced element is touched equally often, →1 when references pile
/// onto few elements. This summarizes the CHD distribution. `bins[c]`
/// holds how many elements were referenced c times, `large` the sorted
/// counts past the bins; `total` is their sum. Σ rank·count is an exact
/// integer, so the result equals the float sum over sorted counts while
/// that sum stays below 2^53.
double gini_of_counts(const std::vector<std::size_t>& bins,
                      const std::vector<std::uint32_t>& large,
                      std::size_t distinct, std::size_t total) {
  if (distinct < 2) return 0.0;
  std::uint64_t weighted = 0, rank = 0;
  for (std::size_t c = 1; c < bins.size(); ++c) {
    const std::uint64_t m = bins[c];
    weighted += c * (m * rank + m * (m + 1) / 2);
    rank += m;
  }
  for (const std::uint32_t c : large) weighted += c * ++rank;
  const double n = static_cast<double>(distinct);
  const double cum = static_cast<double>(total);
  return (2.0 * static_cast<double>(weighted)) / (n * cum) - (n + 1.0) / n;
}

}  // namespace

PatternStats characterize(const AccessPattern& p, unsigned threads,
                          const CharacterizeOptions& opt) {
  SAPP_REQUIRE(threads >= 1, "need at least one thread");
  SAPP_REQUIRE(opt.sample_stride >= 1, "stride must be >= 1");

  PatternStats s;
  s.dim = p.dim;
  s.iterations = p.refs.rows();
  s.refs = p.refs.nnz();
  s.threads = threads;
  s.lw_legal = p.iteration_replication_legal;

  const std::uint64_t* ptr = p.refs.row_ptr().data();
  const std::uint32_t* idx = p.refs.indices().data();
  const std::size_t n = s.iterations;
  const std::size_t stride = opt.sample_stride;

  // One pass over the (possibly sampled) references. Per element: a
  // reference count and an owner byte; kOwnerNone/kOwnerShared mirror the
  // selective-privatization inspector. Elements enter `touched` on their
  // first reference, so the post-pass visits only those, never all of dim.
  std::vector<std::uint32_t> count(p.dim, 0);
  constexpr std::uint8_t kOwnerNone = 0xFF;
  constexpr std::uint8_t kOwnerShared = 0xFE;
  std::vector<std::uint8_t> owner(p.dim, kOwnerNone);
  // One spare slot: the append below always writes, then advances only on
  // a first touch.
  const auto touched = std::make_unique_for_overwrite<std::uint32_t[]>(
      std::min<std::size_t>(p.dim, p.refs.nnz()) + 1);
  std::size_t distinct = 0;

  std::size_t sampled_iters = 0;
  std::size_t sampled_refs = 0;
  std::size_t sum_iter_distinct = 0;
  std::size_t sum_owner_sets = 0;  // Σ_i |owner threads of iteration i|
  // Owner threads of an iteration (lw replication), via the block
  // partition of the element space lw uses (LocalWriteScheme::owner_of).
  const BlockDivider block_of(
      std::max<std::size_t>(1, (p.dim + threads - 1) / threads));
  std::vector<std::size_t> lw_work(threads, 0);
  // The last sampled iteration that counted partition t.
  std::vector<std::size_t> last_counted(
      threads, std::numeric_limits<std::size_t>::max());
  std::vector<std::uint32_t> sorted;

  unsigned tid = 0;
  std::size_t next_tid_at = 0;  // first iteration past thread tid's block
  for (std::size_t i = 0; i < n; i += stride) {
    ++sampled_iters;
    if (i >= next_tid_at) {
      tid = static_cast<unsigned>(
          std::min<std::size_t>(threads - 1, i * threads / n));
      next_tid_at = ((tid + 1) * n + threads - 1) / threads;
    }
    // The owner byte packs thread ids next to the kOwnerNone/kOwnerShared
    // sentinels; on a > 253-thread pool ids clamp to one bucket, slightly
    // under-counting sharing between the highest threads. Approximate
    // stats beat aborting — this is the paper's "fast, approximative"
    // characterizer, and the schemes themselves are unaffected.
    const auto otid = static_cast<std::uint8_t>(std::min(tid, 0xFDu));
    const std::uint32_t* first = idx + ptr[i];
    const std::uint32_t* last = idx + ptr[i + 1];
    const bool short_iteration =
        static_cast<std::size_t>(last - first) <= kShortIteration;
    std::size_t uniq = 0;    // distinct elements of this iteration (MO)
    std::size_t owners = 0;  // owner threads of this iteration (lw)
    for (const std::uint32_t* r = first; r != last; ++r) {
      const std::uint32_t e = *r;
      SAPP_ASSERT(e < p.dim, "element out of range");
      const std::uint32_t c = count[e];
      touched[distinct] = e;
      distinct += c == 0;
      count[e] = c + 1;
      // Branch-free: which thread touches an element is random data.
      const std::uint8_t o = owner[e];
      owner[e] = o == kOwnerNone || o == otid ? otid : kOwnerShared;
      const std::size_t t = std::min<std::size_t>(block_of(e), threads - 1);
      const bool counted = last_counted[t] == i;
      last_counted[t] = i;
      lw_work[t] += !counted;
      owners += !counted;
      if (short_iteration) uniq += std::find(first, r, e) == r;
    }
    if (!short_iteration) {
      sorted.assign(first, last);
      std::sort(sorted.begin(), sorted.end());
      uniq = static_cast<std::size_t>(
          std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    }
    sampled_refs += static_cast<std::size_t>(last - first);
    sum_iter_distinct += uniq;
    sum_owner_sets += owners;
  }

  // Post-pass over the touched elements: sharing, and the reference counts
  // binned for the CH histogram and the Gini sum.
  std::size_t shared = 0;
  std::vector<std::size_t> bins(std::min(kCountBins, sampled_refs + 1), 0);
  std::vector<std::uint32_t> large;
  for (std::size_t k = 0; k < distinct; ++k) {
    const std::uint32_t e = touched[k];
    shared += owner[e] == kOwnerShared;
    const std::uint32_t c = count[e];
    if (c < bins.size())
      ++bins[c];
    else
      large.push_back(c);
  }
  std::sort(large.begin(), large.end());

  // Scale sampled counts back to the full loop.
  const double scale = static_cast<double>(stride);

  // Sampling misses elements; scale the distinct estimate but never past
  // the array dimension (exact when stride == 1).
  s.distinct = stride == 1
                   ? distinct
                   : std::min<std::size_t>(
                         p.dim, static_cast<std::size_t>(distinct * scale));
  s.refs = stride == 1 ? sampled_refs
                       : static_cast<std::size_t>(sampled_refs * scale);

  s.mo = sampled_iters ? static_cast<double>(sum_iter_distinct) /
                             static_cast<double>(sampled_iters)
                       : 0.0;
  s.con = s.distinct ? static_cast<double>(s.refs) /
                           static_cast<double>(s.distinct)
                     : 0.0;
  s.sp = p.dim ? 100.0 * static_cast<double>(s.distinct) /
                     static_cast<double>(p.dim)
               : 0.0;
  s.dim_ratio = static_cast<double>(p.dim * sizeof(double)) /
                static_cast<double>(kCacheBytes);
  s.chr = p.dim ? static_cast<double>(s.refs) /
                      (static_cast<double>(threads) *
                       static_cast<double>(p.dim))
                : 0.0;

  // CH histogram (counts capped).
  s.ch.assign(kChCap + 1, 0);
  for (std::size_t c = 1; c < bins.size(); ++c)
    s.ch[std::min(c, kChCap)] += bins[c];
  for (const std::uint32_t c : large)
    ++s.ch[std::min<std::size_t>(c, kChCap)];
  s.chd_gini = gini_of_counts(bins, large, distinct, sampled_refs);

  // Thread-dependent measures. Touched-per-thread estimated from the owner
  // classification: exclusives touch one thread, shared ones we charge to
  // every thread that could see them (upper bound: threads).
  const double excl = static_cast<double>(distinct - shared);
  s.touched_per_thread =
      threads ? (excl / threads + static_cast<double>(shared)) * scale : 0.0;
  s.touched_per_thread = std::min(s.touched_per_thread,
                                  static_cast<double>(p.dim));
  s.shared_fraction =
      distinct ? static_cast<double>(shared) / static_cast<double>(distinct)
               : 0.0;
  s.lw_replication = sampled_iters ? static_cast<double>(sum_owner_sets) /
                                         static_cast<double>(sampled_iters)
                                   : 0.0;
  const double lw_total = static_cast<double>(
      std::accumulate(lw_work.begin(), lw_work.end(), std::size_t{0}));
  if (lw_total > 0.0) {
    const double mx =
        static_cast<double>(*std::max_element(lw_work.begin(), lw_work.end()));
    s.lw_imbalance = mx / (lw_total / static_cast<double>(threads));
  }
  return s;
}

}  // namespace sapp
