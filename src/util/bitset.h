// Dynamic fixed-capacity bitset used for constraint-satisfaction indices.
//
// The cluster keeps, per (attribute, operator, value) predicate, a bitset of
// the machines satisfying it; candidate worker sets are intersections of
// those. Capacity is the cluster size (thousands to tens of thousands of
// bits), set at construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace phoenix::util {

class Bitset {
 public:
  explicit Bitset(std::size_t size = 0, bool value = false) { Resize(size, value); }

  void Resize(std::size_t size, bool value = false) {
    size_ = size;
    words_.assign((size + 63) / 64, value ? ~0ULL : 0ULL);
    ClearPadding();
  }

  std::size_t size() const { return size_; }

  void Set(std::size_t i) {
    PHOENIX_DCHECK(i < size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  void Reset(std::size_t i) {
    PHOENIX_DCHECK(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool Test(std::size_t i) const {
    PHOENIX_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void SetAll() {
    for (auto& w : words_) w = ~0ULL;
    ClearPadding();
  }

  void ResetAll() {
    for (auto& w : words_) w = 0;
  }

  /// this &= other. Sizes must match.
  void AndWith(const Bitset& other) {
    PHOENIX_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  }

  /// this |= other. Sizes must match.
  void OrWith(const Bitset& other) {
    PHOENIX_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t n = 0;
    for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  bool Any() const {
    for (const auto w : words_)
      if (w != 0) return true;
    return false;
  }

  /// Appends the indices of all set bits to `out`.
  void CollectSetBits(std::vector<std::uint32_t>& out) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        out.push_back(static_cast<std::uint32_t>((w << 6) + static_cast<std::size_t>(b)));
        word &= word - 1;
      }
    }
  }

  /// Calls f(i) for every set bit i in [lo, hi), in ascending order.
  template <typename F>
  void ForEachSetBit(std::size_t lo, std::size_t hi, F&& f) const {
    PHOENIX_DCHECK(lo <= hi && hi <= size_);
    for (std::size_t w = lo >> 6; w < (hi + 63) >> 6; ++w) {
      std::uint64_t word = words_[w] & RangeMask(w, lo, hi);
      while (word != 0) {
        f((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Clears every bit in [lo, hi).
  void ResetRange(std::size_t lo, std::size_t hi) {
    PHOENIX_DCHECK(lo <= hi && hi <= size_);
    for (std::size_t w = lo >> 6; w < (hi + 63) >> 6; ++w) {
      words_[w] &= ~RangeMask(w, lo, hi);
    }
  }

  /// True if any bit in [lo, hi) is set.
  bool AnyIn(std::size_t lo, std::size_t hi) const {
    PHOENIX_DCHECK(lo <= hi && hi <= size_);
    for (std::size_t w = lo >> 6; w < (hi + 63) >> 6; ++w) {
      if ((words_[w] & RangeMask(w, lo, hi)) != 0) return true;
    }
    return false;
  }

  /// Returns a uniformly random set bit, or SIZE_MAX if the bitset is empty.
  ///
  /// Strategy: rejection-sample random positions while the hit rate is good;
  /// after too many misses (sparse set), fall back to an exact rank-select
  /// scan. Expected O(1) for dense sets, O(words) worst case.
  std::size_t SampleSetBit(Rng& rng) const {
    if (size_ == 0) return SIZE_MAX;
    for (int attempt = 0; attempt < 24; ++attempt) {
      const std::size_t i = rng.NextBounded(size_);
      if (Test(i)) return i;
    }
    const std::size_t count = Count();
    if (count == 0) return SIZE_MAX;
    std::size_t rank = rng.NextBounded(count);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const auto pop = static_cast<std::size_t>(std::popcount(words_[w]));
      if (rank < pop) {
        std::uint64_t word = words_[w];
        for (std::size_t k = 0; k < rank; ++k) word &= word - 1;
        return (w << 6) +
               static_cast<std::size_t>(std::countr_zero(word));
      }
      rank -= pop;
    }
    PHOENIX_CHECK_MSG(false, "rank-select fell off the end");
  }

 private:
  // The bits of word `w` that fall inside [lo, hi), for a word the range
  // touches (w << 6 < hi and lo < (w + 1) << 6).
  static std::uint64_t RangeMask(std::size_t w, std::size_t lo,
                                 std::size_t hi) {
    const std::size_t base = w << 6;
    std::uint64_t mask = ~0ULL;
    if (lo > base) mask &= ~0ULL << (lo - base);
    if (hi < base + 64) mask &= (1ULL << (hi - base)) - 1;
    return mask;
  }

  // Keeps bits beyond size_ zero so Count()/Any() stay exact.
  void ClearPadding() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ULL << (size_ % 64)) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace phoenix::util
