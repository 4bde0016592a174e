#ifndef ATPM_COMMON_BIT_VECTOR_H_
#define ATPM_COMMON_BIT_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"

namespace atpm {

/// Dense fixed-size bitset over 64-bit words. Used for BFS visited sets,
/// RR-set membership, and activation bitmaps, where std::vector<bool> is too
/// slow and std::bitset needs a compile-time size.
class BitVector {
 public:
  BitVector() = default;
  /// Creates a bit vector of `n` bits, all clear.
  explicit BitVector(size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  /// Number of bits.
  size_t size() const { return n_; }

  /// Sets bit `i`.
  void Set(size_t i) {
    ATPM_DCHECK(i < n_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  /// Clears bit `i`.
  void Clear(size_t i) {
    ATPM_DCHECK(i < n_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  /// Tests bit `i`.
  bool Test(size_t i) const {
    ATPM_DCHECK(i < n_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Clears all bits.
  void Reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// True iff any bit is set.
  bool Any() const {
    for (uint64_t w : words_) {
      if (w) return true;
    }
    return false;
  }

  /// The backing 64-bit words (trailing bits beyond size() are zero) —
  /// for content hashing / equality without bit-by-bit walks.
  std::span<const uint64_t> words() const { return words_; }

  /// Same size and same bits.
  bool operator==(const BitVector&) const = default;

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

/// "Visited" marker with O(1) bulk reset: instead of clearing a bitmap after
/// every BFS, each traversal bumps an epoch counter, and a node is visited
/// iff its stamp equals the current epoch. This is the standard trick for
/// running millions of small traversals (RR-set generation) over one graph.
class EpochVisitedSet {
 public:
  EpochVisitedSet() = default;
  /// Creates a marker for `n` elements.
  explicit EpochVisitedSet(size_t n) : stamps_(n, 0), epoch_(0) {}

  /// Number of elements.
  size_t size() const { return stamps_.size(); }

  /// Invalidates all marks in O(1).
  void NextEpoch() {
    ++epoch_;
    if (epoch_ == 0) {  // wrap-around: do the rare full clear
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks element `i` visited in the current epoch.
  void Mark(size_t i) {
    ATPM_DCHECK(i < stamps_.size());
    stamps_[i] = epoch_;
  }

  /// True iff `i` was marked since the last NextEpoch().
  bool IsMarked(size_t i) const {
    ATPM_DCHECK(i < stamps_.size());
    return stamps_[i] == epoch_;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

}  // namespace atpm

#endif  // ATPM_COMMON_BIT_VECTOR_H_
