#ifndef UHSCM_IO_SERIALIZE_H_
#define UHSCM_IO_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "core/trainer.h"
#include "index/packed_codes.h"
#include "linalg/matrix.h"
#include "nn/sequential.h"

namespace uhscm::io {

/// \brief Binary (de)serialization for the artifacts a deployment needs
/// to persist: matrices, trained hashing networks, and packed code
/// databases.
///
/// Format: little-endian, magic + version header per artifact; payload
/// checksummed with FNV-1a so silently truncated files are rejected.
/// Files are self-describing enough to fail loudly — never silently —
/// on mismatch.

/// Writes a matrix ("UHSM" block).
Status SaveMatrix(const linalg::Matrix& m, const std::string& path);

/// Reads a matrix written by SaveMatrix.
Result<linalg::Matrix> LoadMatrix(const std::string& path);

/// Writes all parameters of a model in Parameters() order ("UHSN"
/// block). The loader must be called on an identically-shaped model.
Status SaveModelParameters(nn::Layer* model, const std::string& path);

/// Restores parameters saved by SaveModelParameters into `model`.
/// Fails with InvalidArgument when shapes mismatch.
Status LoadModelParameters(nn::Layer* model, const std::string& path);

/// Writes a trained UHSCM hashing network together with its
/// architecture so it can be reconstructed without the original config
/// ("UHSH" block).
Status SaveHashingNetwork(const core::HashingNetwork& network,
                          const std::string& path);

/// Reconstructs a hashing network saved by SaveHashingNetwork.
Result<std::unique_ptr<core::HashingNetwork>> LoadHashingNetwork(
    const std::string& path);

/// Writes a packed code database ("UHSC" block, version 1 — no epoch, no
/// tombstones; the training-side artifact).
Status SavePackedCodes(const index::PackedCodes& codes,
                       const std::string& path);

/// Reads a packed code database. Accepts both the legacy v1 artifact and
/// a v2 serving snapshot; for v2, tombstoned rows are compacted away so
/// the caller receives exactly the surviving codes.
Result<index::PackedCodes> LoadPackedCodes(const std::string& path);

/// \brief A versioned serving snapshot: the whole corpus (live +
/// tombstoned rows, in global-id order), the deletion bitmap, and the
/// corpus epoch the snapshot was taken at.
///
/// Persisted as "UHSC" version 2. Version 1 files (SavePackedCodes
/// output) load as a snapshot with epoch 0 and no tombstones, so every
/// pre-versioning artifact stays servable.
struct CodesSnapshot {
  index::PackedCodes codes;
  uint64_t epoch = 0;
  /// Deletion bitmap, ceil(codes.size()/64) words (empty = all rows
  /// live; v1 artifacts always load this way).
  std::vector<uint64_t> tombstone_words;
  /// On-disk format version the loader found (1 = legacy codes block,
  /// 2 = serving snapshot). Ignored on save — SaveCodesSnapshot always
  /// writes v2.
  uint32_t version = 2;

  bool HasTombstones() const;
  /// Number of live (non-tombstoned) rows.
  int LiveCount() const;
  /// True when row `gid` is tombstoned (an empty bitmap means all rows
  /// live — the v1 shape). The one place the raw bitmap is decoded.
  bool IsDead(int gid) const {
    return !tombstone_words.empty() &&
           ((tombstone_words[static_cast<size_t>(gid >> 6)] >> (gid & 63)) &
            1ULL) != 0;
  }
};

/// Writes a v2 serving snapshot ("UHSC" version 2 block). Every byte is
/// checked on load: the codes section has its own checksum, and the
/// tombstone section's checksum covers the epoch and the bitmap.
Status SaveCodesSnapshot(const CodesSnapshot& snapshot,
                         const std::string& path);

/// Reads a serving snapshot written by SaveCodesSnapshot, or a legacy v1
/// SavePackedCodes artifact (epoch 0, no tombstones). Corrupt or
/// truncated files fail with a Status — never a crash.
Result<CodesSnapshot> LoadCodesSnapshot(const std::string& path);

}  // namespace uhscm::io

#endif  // UHSCM_IO_SERIALIZE_H_
