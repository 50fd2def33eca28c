#include "spec/rlrpd.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sapp {

namespace {

/// Direct execution against the shared array.
class DirectArray final : public SpecArray {
 public:
  explicit DirectArray(std::span<double> data) : data_(data) {}
  double read(std::uint32_t e) override { return data_[e]; }
  void write(std::uint32_t e, double v) override { data_[e] = v; }
  void reduce_add(std::uint32_t e, double v) override { data_[e] += v; }

 private:
  std::span<double> data_;
};

/// Speculative execution of one block: copy-in reads from the committed
/// state, private write buffer, reduction accumulators, and the access
/// sets the validation phase needs.
class BlockArray final : public SpecArray {
 public:
  /// `sampled` (when non-null) marks the elements whose pending state is
  /// mirrored into a shadow ledger for the pre-commit check. The shadow
  /// repeats the primary updates in identical program order on the same
  /// types, so an uncorrupted block matches its shadow bitwise and the
  /// comparison needs no tolerance.
  BlockArray(std::span<const double> committed,
             const std::vector<std::uint8_t>* sampled)
      : committed_(committed), sampled_(sampled) {}

  double read(std::uint32_t e) override {
    if (auto it = written_.find(e); it != written_.end()) {
      // Value produced inside this block; accumulate pending reductions.
      return it->second;
    }
    exposed_reads_.insert(e);  // observed committed state -> potential sink
    double v = committed_[e];
    if (auto it = red_.find(e); it != red_.end()) v += it->second;
    return v;
  }

  void write(std::uint32_t e, double v) override {
    written_[e] = v;
    red_.erase(e);  // write kills pending accumulation
    if (watched(e)) {
      shadow_written_[e] = v;
      shadow_red_.erase(e);
    }
  }

  void reduce_add(std::uint32_t e, double v) override {
    if (auto it = written_.find(e); it != written_.end()) {
      it->second += v;  // local to the block, not a cross-block reduction
      if (watched(e)) shadow_written_[e] += v;
    } else {
      red_[e] += v;
      if (watched(e)) shadow_red_[e] += v;
    }
  }

  /// Pre-commit check: every watched pending value must agree with its
  /// shadow, in both directions (a corruption that moved or dropped an
  /// entry is caught by the count comparison).
  [[nodiscard]] bool shadow_matches() const {
    if (sampled_ == nullptr) return true;
    std::size_t watched_writes = 0;
    for (const auto& [e, v] : written_) {
      if (!watched(e)) continue;
      ++watched_writes;
      const auto it = shadow_written_.find(e);
      if (it == shadow_written_.end() || !(it->second == v)) return false;
    }
    if (watched_writes != shadow_written_.size()) return false;
    std::size_t watched_reds = 0;
    for (const auto& [e, v] : red_) {
      if (!watched(e)) continue;
      ++watched_reds;
      const auto it = shadow_red_.find(e);
      if (it == shadow_red_.end() || !(it->second == v)) return false;
    }
    return watched_reds == shadow_red_.size();
  }

  /// Expose the pending cells so the fault injector can corrupt one
  /// speculative value between execution and validation.
  void pending_cells(std::vector<double*>& cells,
                     std::vector<std::uint32_t>& elements) {
    for (auto& [e, v] : written_) {
      cells.push_back(&v);
      elements.push_back(e);
    }
    for (auto& [e, v] : red_) {
      cells.push_back(&v);
      elements.push_back(e);
    }
  }

  /// Elements whose committed value this block observed.
  [[nodiscard]] const std::unordered_set<std::uint32_t>& exposed_reads()
      const {
    return exposed_reads_;
  }
  /// Elements this block defines (writes) or accumulates into.
  [[nodiscard]] const std::unordered_map<std::uint32_t, double>& written()
      const {
    return written_;
  }
  [[nodiscard]] const std::unordered_map<std::uint32_t, double>& reduced()
      const {
    return red_;
  }

  /// Apply this block's effects to the shared state (called in block order
  /// for committed blocks only).
  void commit(std::span<double> data) const {
    for (const auto& [e, v] : written_) data[e] = v;
    for (const auto& [e, v] : red_) data[e] += v;
  }

 private:
  [[nodiscard]] bool watched(std::uint32_t e) const {
    return sampled_ != nullptr && (*sampled_)[e] != 0;
  }

  std::span<const double> committed_;
  const std::vector<std::uint8_t>* sampled_ = nullptr;
  std::unordered_map<std::uint32_t, double> written_;
  std::unordered_map<std::uint32_t, double> red_;
  std::unordered_map<std::uint32_t, double> shadow_written_;
  std::unordered_map<std::uint32_t, double> shadow_red_;
  std::unordered_set<std::uint32_t> exposed_reads_;
};

}  // namespace

void sequential_execute(std::size_t n, const SpecLoopBody& body,
                        std::span<double> data) {
  DirectArray arr(data);
  for (std::size_t i = 0; i < n; ++i) body(i, arr);
}

RlrpdStats rlrpd_execute(std::size_t n, const SpecLoopBody& body,
                         std::span<double> data, ThreadPool& pool,
                         const RlrpdConfig& cfg) {
  RlrpdStats stats;
  const unsigned P = pool.size();
  std::size_t start = 0;

  // Element-sampling bitmap of the in-flight commit check, fixed for the
  // whole execution: a corrupted pending value on a sampled element is
  // detected with certainty, on an unsampled one never — exactly the
  // checker's per-element detection bound.
  std::vector<std::uint8_t> sampled;
  const std::vector<std::uint8_t>* sampled_ptr = nullptr;
  if (cfg.check.enabled) {
    sampled.resize(data.size());
    for (std::size_t e = 0; e < data.size(); ++e)
      sampled[e] =
          ReductionChecker::slot_sampled(cfg.check.sample_rate, e) ? 1 : 0;
    sampled_ptr = &sampled;
  }

  while (start < n) {
    if (cfg.max_rounds != 0 && stats.rounds >= cfg.max_rounds) {
      // Give up on speculation; finish sequentially (always correct).
      DirectArray arr(data);
      for (std::size_t i = start; i < n; ++i) body(i, arr);
      stats.committed = n;
      stats.success = false;
      return stats;
    }
    ++stats.rounds;

    const std::size_t remaining = n - start;
    const unsigned blocks = static_cast<unsigned>(
        std::min<std::size_t>(P, remaining));

    // --- Speculative parallel execution of the blocks.
    std::vector<BlockArray> arrs;
    arrs.reserve(blocks);
    for (unsigned b = 0; b < blocks; ++b)
      arrs.emplace_back(std::span<const double>(data.data(), data.size()),
                        sampled_ptr);
    std::vector<Range> ranges(blocks);
    pool.run([&](unsigned tid) {
      if (tid >= blocks) return;
      const Range r = static_block(remaining, tid, blocks);
      ranges[tid] = Range{start + r.begin, start + r.end};
      for (std::size_t i = ranges[tid].begin; i < ranges[tid].end; ++i)
        body(i, arrs[tid]);
    });

    // --- Fault injection (tests and sapp_repro checking only): corrupt
    // one pending speculative value before validation sees it.
    if (cfg.fault_injector != nullptr) {
      std::vector<double*> cells;
      std::vector<std::uint32_t> elements;
      for (unsigned b = 0; b < blocks; ++b)
        arrs[b].pending_cells(cells, elements);
      cfg.fault_injector->corrupt_indirect(FaultSite::kSpecCommit, cells,
                                           elements);
    }

    // --- Validation: earliest block whose pending state fails the shadow
    // check or whose exposed reads intersect the writes/reductions of any
    // earlier block in this round. A failed check re-uses the
    // mis-speculation machinery: the correct prefix commits, the corrupted
    // block (and everything after it) re-executes.
    std::unordered_set<std::uint32_t> defined;
    unsigned fail_block = blocks;
    for (unsigned b = 0; b < blocks; ++b) {
      if (sampled_ptr != nullptr) {
        ++stats.checked_blocks;
        if (!arrs[b].shadow_matches()) {
          ++stats.check_failures;
          fail_block = b;
          break;
        }
      }
      if (b > 0) {
        bool conflict = false;
        for (std::uint32_t e : arrs[b].exposed_reads())
          if (defined.contains(e)) {
            conflict = true;
            break;
          }
        if (conflict) {
          fail_block = b;
          break;
        }
      }
      for (const auto& [e, v] : arrs[b].written()) {
        (void)v;
        defined.insert(e);
      }
      for (const auto& [e, v] : arrs[b].reduced()) {
        (void)v;
        defined.insert(e);
      }
    }

    // --- Commit the correct prefix, in block order.
    for (unsigned b = 0; b < fail_block; ++b) {
      arrs[b].commit(data);
      stats.committed += ranges[b].size();
    }
    if (fail_block == blocks) {
      start = n;
    } else {
      for (unsigned b = fail_block; b < blocks; ++b)
        stats.reexecuted += ranges[b].size();
      start = ranges[fail_block].begin;
    }
  }
  return stats;
}

}  // namespace sapp
