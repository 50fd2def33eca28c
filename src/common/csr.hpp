// Compressed-sparse-row container.
//
// Used as the backbone of the reduction AccessPattern (iteration → element
// references), workload meshes (node adjacency) and the wavefront
// inspector's dependence lists.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace sapp {

/// Rows of variable-length index lists stored contiguously.
/// `row_ptr` has `rows()+1` entries; row r occupies
/// `indices[row_ptr[r] .. row_ptr[r+1])`.
/// Immutable once built, with an exact identity: each construction from
/// arrays stamps a process-unique `id()`, copies keep it and a move hands
/// it over; an empty default-constructed or moved-from Csr reads 0.
class Csr {
 public:
  Csr() = default;

  /// Adopt prebuilt arrays. `row_ptr` must be non-decreasing, start at 0 and
  /// end at `indices.size()`.
  Csr(std::vector<std::uint64_t> row_ptr, std::vector<std::uint32_t> indices)
      : row_ptr_(std::move(row_ptr)),
        indices_(std::move(indices)),
        id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {
    SAPP_REQUIRE(!row_ptr_.empty() && row_ptr_.front() == 0 &&
                     row_ptr_.back() == indices_.size(),
                 "malformed CSR row pointer");
  }

  Csr(const Csr&) = default;
  Csr& operator=(const Csr&) = default;
  Csr(Csr&& o) noexcept
      : row_ptr_(std::exchange(o.row_ptr_, {})),
        indices_(std::exchange(o.indices_, {})),
        id_(std::exchange(o.id_, 0)) {}
  Csr& operator=(Csr&& o) noexcept {
    row_ptr_ = std::exchange(o.row_ptr_, {});
    indices_ = std::exchange(o.indices_, {});
    id_ = std::exchange(o.id_, 0);
    return *this;
  }

  /// Build from a list of (row, index) pairs via counting sort.
  static Csr from_pairs(
      std::size_t rows,
      std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs) {
    std::vector<std::uint64_t> ptr(rows + 1, 0);
    for (const auto& [r, c] : pairs) {
      SAPP_REQUIRE(r < rows, "row out of range");
      (void)c;
      ++ptr[r + 1];
    }
    for (std::size_t r = 0; r < rows; ++r) ptr[r + 1] += ptr[r];
    std::vector<std::uint32_t> idx(pairs.size());
    std::vector<std::uint64_t> cursor(ptr.begin(), ptr.end() - 1);
    for (const auto& [r, c] : pairs) idx[cursor[r]++] = c;
    return Csr(std::move(ptr), std::move(idx));
  }

  [[nodiscard]] std::size_t rows() const {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const { return indices_.size(); }

  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const {
    SAPP_ASSERT(r + 1 < row_ptr_.size(), "row out of range");
    return {indices_.data() + row_ptr_[r],
            static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
  }

  [[nodiscard]] const std::vector<std::uint64_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& indices() const {
    return indices_;
  }
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  inline static std::atomic<std::uint64_t> next_id_{1};

  std::vector<std::uint64_t> row_ptr_;
  std::vector<std::uint32_t> indices_;
  std::uint64_t id_ = 0;
};

}  // namespace sapp
