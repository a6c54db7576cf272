#ifndef UHSCM_INDEX_MULTI_INDEX_HASH_H_
#define UHSCM_INDEX_MULTI_INDEX_HASH_H_

#include <unordered_map>
#include <vector>

#include "index/neighbor.h"
#include "index/packed_codes.h"

namespace uhscm::index {

/// \brief Multi-Index Hashing (Norouzi et al.) for sub-linear Hamming
/// radius queries — the hash-lookup protocol of §4.2 at database scale.
///
/// The k-bit code is split into s disjoint substrings; a code within
/// Hamming radius r of the query must match the query in at least one
/// substring within radius floor(r/s). Each substring gets an exact-match
/// hash table; candidates are gathered by enumerating all substring
/// values within the per-substring radius, then verified with a full
/// popcount distance. For the radii the PR protocol uses (small r),
/// enumeration stays tiny.
///
/// Immutable: the tables are built once over the database given at
/// construction. Serving (mutable, top-k) runs on LinearScanIndex.
class MultiIndexHashTable {
 public:
  /// \param database packed database codes (owned).
  /// \param num_substrings s >= 1; substring width is ceil(bits/s). The
  ///        classic choice s = bits / log2(n) is applied when 0 is given.
  explicit MultiIndexHashTable(PackedCodes database, int num_substrings = 0);

  int size() const { return database_.size(); }
  int bits() const { return database_.bits(); }
  int num_substrings() const { return num_substrings_; }

  /// All database codes within Hamming radius r of the query, ascending
  /// id — exact, verified results (identical to
  /// LinearScanIndex::WithinRadius, which the tests cross-check).
  std::vector<Neighbor> WithinRadius(const uint64_t* query, int r) const;

 private:
  /// Extracts substring `s` (width substring_bits_) from a packed code.
  uint64_t ExtractSubstring(const uint64_t* code, int s) const;

  /// Recursively enumerates all values at Hamming distance <= radius from
  /// `value` over `width` bits, invoking the table probe for each.
  void EnumerateNeighbors(uint64_t value, int width, int radius,
                          int first_bit, int table,
                          std::vector<int>* candidates) const;

  PackedCodes database_;
  int num_substrings_ = 1;
  int substring_bits_ = 0;
  /// tables_[s] maps substring value -> database ids.
  std::vector<std::unordered_map<uint64_t, std::vector<int>>> tables_;
};

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_MULTI_INDEX_HASH_H_
