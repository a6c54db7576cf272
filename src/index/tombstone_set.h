#ifndef UHSCM_INDEX_TOMBSTONE_SET_H_
#define UHSCM_INDEX_TOMBSTONE_SET_H_

#include <cstdint>
#include <vector>

namespace uhscm::index {

/// \brief Deletion bitmap over a code database.
///
/// Removed rows keep their id and their packed words; they are simply
/// skipped by every scan loop. Id stability is what lets a mutable index
/// stay byte-identical (after id compaction) to a fresh rebuild of the
/// surviving rows: survivors keep their relative order, and the
/// (distance, id) tie-break only depends on that order.
class TombstoneSet {
 public:
  TombstoneSet() = default;

  /// Rebuilds from a serialized bitmap (snapshot load). `words` must hold
  /// ceil(n/64) entries; bits at positions >= n are ignored.
  static TombstoneSet FromWords(int n, const std::vector<uint64_t>& words);

  /// Grows the bitmap to cover `n` rows; new rows start live. Never
  /// shrinks.
  void Resize(int n);

  int size() const { return size_; }
  int dead_count() const { return dead_count_; }
  bool any() const { return dead_count_ > 0; }

  bool Test(int i) const {
    return (words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1ULL;
  }

  /// Dead rows among [lo, hi). Precondition: hi <= size().
  int CountDead(int lo, int hi) const;

  /// Marks row i dead. Returns false when it was already dead.
  bool Set(int i);

  /// Raw bitmap, ceil(size/64) words (serialization path).
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  int size_ = 0;
  int dead_count_ = 0;
  std::vector<uint64_t> words_;
};

inline TombstoneSet TombstoneSet::FromWords(int n,
                                            const std::vector<uint64_t>& words) {
  TombstoneSet set;
  set.Resize(n);
  const size_t count =
      words.size() < set.words_.size() ? words.size() : set.words_.size();
  for (size_t w = 0; w < count; ++w) set.words_[w] = words[w];
  // Clear any bits beyond the last row so dead_count stays exact.
  if (n & 63) set.words_.back() &= (1ULL << (n & 63)) - 1;
  set.dead_count_ = 0;
  for (uint64_t w : set.words_) {
    set.dead_count_ += __builtin_popcountll(w);
  }
  return set;
}

inline void TombstoneSet::Resize(int n) {
  if (n > size_) {
    size_ = n;
    words_.resize(static_cast<size_t>((n + 63) / 64), 0);
  }
}

inline int TombstoneSet::CountDead(int lo, int hi) const {
  int count = 0;
  while (lo < hi) {
    const int word_end = (lo | 63) + 1;
    const int end = word_end < hi ? word_end : hi;
    uint64_t bits = words_[static_cast<size_t>(lo >> 6)] >> (lo & 63);
    if (end - lo < 64) bits &= (1ULL << (end - lo)) - 1;
    count += __builtin_popcountll(bits);
    lo = end;
  }
  return count;
}

inline bool TombstoneSet::Set(int i) {
  uint64_t& word = words_[static_cast<size_t>(i >> 6)];
  const uint64_t mask = 1ULL << (i & 63);
  if (word & mask) return false;
  word |= mask;
  ++dead_count_;
  return true;
}

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_TOMBSTONE_SET_H_
