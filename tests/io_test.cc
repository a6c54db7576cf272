#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/serialize.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/linear.h"

// The largest single operator-new request so far. The corruption sweep
// resets and reads it to catch an allocation sized from a damaged header
// (replacing the global operator works the same under ASan, which tracks
// the malloc underneath).
static std::atomic<size_t> g_largest_new{0};

void* operator new(size_t bytes) {
  size_t largest = g_largest_new.load(std::memory_order_relaxed);
  while (bytes > largest &&
         !g_largest_new.compare_exchange_weak(largest, bytes,
                                              std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() paired with a new.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace uhscm::io {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : created_) {
      std::remove(path.c_str());
    }
  }

  std::string Path(const std::string& name) {
    const std::string path = TempPath(name);
    created_.push_back(path);
    return path;
  }

  std::vector<std::string> created_;
};

TEST_F(IoTest, MatrixRoundTrip) {
  Rng rng(1);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(17, 23, &rng);
  const std::string path = Path("matrix.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  Result<linalg::Matrix> loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 17);
  ASSERT_EQ(loaded->cols(), 23);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(loaded->data()[i], m.data()[i]);
  }
}

TEST_F(IoTest, EmptyMatrixRoundTrip) {
  const linalg::Matrix m;
  const std::string path = Path("empty.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  Result<linalg::Matrix> loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0);
}

TEST_F(IoTest, LoadMissingFileIsNotFound) {
  Result<linalg::Matrix> r = LoadMatrix(TempPath("does-not-exist.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, WrongMagicRejected) {
  Rng rng(2);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(3, 3, &rng);
  const std::string path = Path("codes-as-matrix.bin");
  // Save packed codes, then try to read them as a matrix.
  index::PackedCodes codes = index::PackedCodes::FromSignMatrix(m);
  ASSERT_TRUE(SavePackedCodes(codes, path).ok());
  Result<linalg::Matrix> r = LoadMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, TruncatedFileRejected) {
  Rng rng(3);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(20, 20, &rng);
  const std::string path = Path("truncated.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  // Truncate the file to half its size.
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  const long full = std::ftell(fp);
  std::fclose(fp);
  ASSERT_EQ(truncate(path.c_str(), full / 2), 0);
  EXPECT_FALSE(LoadMatrix(path).ok());
}

TEST_F(IoTest, CorruptedPayloadFailsChecksum) {
  Rng rng(4);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(8, 8, &rng);
  const std::string path = Path("corrupt.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  // Flip one byte in the middle of the payload.
  std::FILE* fp = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 40, SEEK_SET);
  int c = std::fgetc(fp);
  std::fseek(fp, 40, SEEK_SET);
  std::fputc(c ^ 0xFF, fp);
  std::fclose(fp);
  Result<linalg::Matrix> r = LoadMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

// A header is untrusted input: dims claiming 2^30 x 2^30 floats (4 EiB)
// must fail the load with a Status before anything is allocated — no
// bad_alloc, no crash.
TEST_F(IoTest, ForgedHugeHeadersFailWithStatusNotAllocation) {
  const int32_t huge = 1 << 30;
  const uint32_t version = 1;
  const std::string path = Path("forged.bin");
  auto forge = [&](const char magic[4], const std::vector<int32_t>& fields) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(fields.data(), sizeof(int32_t), fields.size(), f);
    const char tail[64] = {};  // a little payload, nowhere near enough
    std::fwrite(tail, 1, sizeof(tail), f);
    std::fclose(f);
  };

  // A bare matrix.
  forge("UHSM", {huge, huge});
  Result<linalg::Matrix> matrix = LoadMatrix(path);
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);

  // Model parameters: the right parameter count, then a huge matrix.
  Rng rng(8);
  nn::Sequential model;
  model.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  forge("UHSN", {2, huge, huge});
  EXPECT_FALSE(LoadModelParameters(&model, path).ok());

  // A hashing network whose architecture header claims a 2^30 x 2^30
  // first layer (allocated before any weight is read) ...
  forge("UHSH", {huge, huge, 8, 4});
  Result<std::unique_ptr<core::HashingNetwork>> network =
      LoadHashingNetwork(path);
  ASSERT_FALSE(network.ok());
  EXPECT_EQ(network.status().code(), StatusCode::kInvalidArgument);

  // ... and one with a sane architecture but a huge first weight matrix.
  forge("UHSH", {4, 4, 4, 4, huge, huge});
  EXPECT_FALSE(LoadHashingNetwork(path).ok());
}

TEST_F(IoTest, ModelParametersRoundTrip) {
  Rng rng(5);
  nn::Sequential model;
  model.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  model.Append(std::make_unique<nn::Relu>());
  model.Append(std::make_unique<nn::Linear>(10, 4, &rng));
  const std::string path = Path("model.bin");
  ASSERT_TRUE(SaveModelParameters(&model, path).ok());

  nn::Sequential other;
  other.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  other.Append(std::make_unique<nn::Relu>());
  other.Append(std::make_unique<nn::Linear>(10, 4, &rng));
  ASSERT_TRUE(LoadModelParameters(&other, path).ok());

  const linalg::Matrix x = linalg::Matrix::RandomNormal(5, 6, &rng);
  const linalg::Matrix ya = model.Forward(x);
  const linalg::Matrix yb = other.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST_F(IoTest, ModelShapeMismatchRejected) {
  Rng rng(6);
  nn::Sequential model;
  model.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  const std::string path = Path("model2.bin");
  ASSERT_TRUE(SaveModelParameters(&model, path).ok());

  nn::Sequential wrong_shape;
  wrong_shape.Append(std::make_unique<nn::Linear>(6, 11, &rng));
  EXPECT_FALSE(LoadModelParameters(&wrong_shape, path).ok());

  nn::Sequential wrong_count;
  wrong_count.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  wrong_count.Append(std::make_unique<nn::Linear>(10, 2, &rng));
  EXPECT_FALSE(LoadModelParameters(&wrong_count, path).ok());
}

TEST_F(IoTest, HashingNetworkRoundTripEncodesIdentically) {
  Rng rng(7);
  core::HashingNetworkOptions options;
  options.hidden1 = 32;
  options.hidden2 = 24;
  options.bits = 16;
  core::HashingNetwork network(12, options, &rng);
  const std::string path = Path("hashnet.bin");
  ASSERT_TRUE(SaveHashingNetwork(network, path).ok());

  Result<std::unique_ptr<core::HashingNetwork>> loaded =
      LoadHashingNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->input_dim(), 12);
  EXPECT_EQ((*loaded)->bits(), 16);

  const linalg::Matrix x = linalg::Matrix::RandomNormal(9, 12, &rng);
  const linalg::Matrix a = network.EncodeBinary(x);
  const linalg::Matrix b = (*loaded)->EncodeBinary(x);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

class PackedCodesRoundTrip : public IoTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(PackedCodesRoundTrip, PreservesAllDistances) {
  const int bits = GetParam();
  Rng rng(8);
  linalg::Matrix codes(25, bits);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes.data()[i] = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  index::PackedCodes packed = index::PackedCodes::FromSignMatrix(codes);
  const std::string path = Path("codes.bin");
  ASSERT_TRUE(SavePackedCodes(packed, path).ok());
  Result<index::PackedCodes> loaded = LoadPackedCodes(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), packed.size());
  ASSERT_EQ(loaded->bits(), packed.bits());
  for (int i = 0; i < packed.size(); ++i) {
    for (int j = 0; j < packed.size(); ++j) {
      EXPECT_EQ(loaded->Distance(i, j), packed.Distance(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedCodesRoundTrip,
                         ::testing::Values(16, 64, 96, 128));

// ---------------------------------------------------------------------
// Serving snapshot ("UHSC" v2): epoch + tombstone section, with v1 read
// compatibility.

index::PackedCodes RandomPacked(int n, int bits, Rng* rng) {
  linalg::Matrix codes(n, bits);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes.data()[i] = rng->Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return index::PackedCodes::FromSignMatrix(codes);
}

TEST_F(IoTest, CodesSnapshotV2RoundTrip) {
  Rng rng(9);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(70, 96, &rng);
  snapshot.epoch = 42;
  snapshot.tombstone_words.assign(static_cast<size_t>((70 + 63) / 64), 0);
  snapshot.tombstone_words[0] |= 1ULL << 3;
  snapshot.tombstone_words[1] |= 1ULL << (69 - 64);

  const std::string path = Path("snapshot_v2.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 42u);
  EXPECT_EQ(loaded->codes.size(), 70);
  EXPECT_EQ(loaded->codes.bits(), 96);
  EXPECT_TRUE(loaded->HasTombstones());
  EXPECT_EQ(loaded->LiveCount(), 68);
  EXPECT_EQ(loaded->tombstone_words, snapshot.tombstone_words);
  EXPECT_EQ(loaded->codes.words(), snapshot.codes.words());

  // LoadPackedCodes on the same v2 file compacts the tombstoned rows.
  Result<index::PackedCodes> compacted = LoadPackedCodes(path);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->size(), 68);
  // Row 0 of the compacted database is row 0 of the snapshot (gid 3 and
  // 69 were dead), row 3 is gid 4.
  EXPECT_EQ(0, index::HammingDistance(compacted->code(3),
                                      snapshot.codes.code(4),
                                      snapshot.codes.words_per_code()));
}

TEST_F(IoTest, LegacyV1LoadsAsSnapshotWithEpochZero) {
  Rng rng(10);
  index::PackedCodes packed = RandomPacked(30, 64, &rng);
  const std::string path = Path("legacy_codes.bin");
  ASSERT_TRUE(SavePackedCodes(packed, path).ok());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_FALSE(loaded->HasTombstones());
  EXPECT_EQ(loaded->LiveCount(), 30);
  EXPECT_EQ(loaded->codes.words(), packed.words());
}

TEST_F(IoTest, SnapshotCorruptHeaderReturnsStatusError) {
  const std::string path = Path("corrupt_snapshot.bin");
  // Wrong magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("XXXX garbage that is long enough to read a header from",
               f);
    std::fclose(f);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Right magic, unsupported version.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint32_t bad_version = 99;
    std::fwrite("UHSC", 1, 4, f);
    std::fwrite(&bad_version, sizeof(bad_version), 1, f);
    std::fclose(f);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Valid v2 prefix, truncated before the tombstone section.
  {
    Rng rng(11);
    CodesSnapshot snapshot;
    snapshot.codes = RandomPacked(20, 64, &rng);
    snapshot.epoch = 7;
    ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // 4 magic + 4 version + 8 epoch + 8 dims + half the code words.
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long full = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), full - 20), 0);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
  }
  // Flipped tombstone bit fails the section checksum.
  {
    Rng rng(12);
    CodesSnapshot snapshot;
    snapshot.codes = RandomPacked(20, 64, &rng);
    snapshot.epoch = 7;
    snapshot.tombstone_words.assign(1, 1ULL << 5);
    ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // The tombstone bitmap sits 12 bytes before EOF (8 checksum + ...):
    // layout ends [bitmap words][u64 checksum].
    ASSERT_EQ(std::fseek(f, -16, SEEK_END), 0);
    uint64_t word = 0;
    ASSERT_EQ(std::fread(&word, sizeof(word), 1, f), 1u);
    word ^= 1ULL << 9;
    ASSERT_EQ(std::fseek(f, -16, SEEK_END), 0);
    ASSERT_EQ(std::fwrite(&word, sizeof(word), 1, f), 1u);
    std::fclose(f);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(IoTest, SnapshotRejectsWrongSizeTombstoneBitmap) {
  Rng rng(13);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(100, 64, &rng);
  snapshot.tombstone_words.assign(1, 0);  // needs 2 words for 100 rows
  const std::string path = Path("bad_bitmap.bin");
  Status st = SaveCodesSnapshot(snapshot, path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Corruption sweep: every loader, every byte offset. A damaged artifact
// must fail with a Status — never crash, read out of bounds, or allocate
// from a garbage size field (the ASan job runs this sweep too).

std::vector<char> ReadFileBytes(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Loads `in` and, when the load succeeds, saves what it loaded to `out`.
using LoadAndResave =
    std::function<Status(const std::string& in, const std::string& out)>;

class CorruptionSweepTest : public IoTest {
 protected:
  /// Truncates the artifact at `path` at every byte offset and,
  /// separately, XORs every byte with 0xFF. Every truncation must fail.
  /// A flip the checksums accept must round-trip: saving what was loaded
  /// reproduces the flipped file byte for byte. The artifacts are a few
  /// KiB, so any single allocation of 1 MiB or more means some loader
  /// sized it from a damaged header. Returns the offsets of the accepted
  /// flips.
  std::vector<size_t> Sweep(const std::string& path,
                            const LoadAndResave& load_and_resave) {
    g_largest_new.store(0, std::memory_order_relaxed);
    const std::vector<char> original = ReadFileBytes(path);
    EXPECT_FALSE(original.empty());
    const std::string damaged = Path("sweep_damaged.bin");
    const std::string resaved = Path("sweep_resaved.bin");
    EXPECT_TRUE(load_and_resave(path, resaved).ok()) << "pristine artifact";
    std::vector<size_t> accepted;
    for (size_t offset = 0; offset < original.size(); ++offset) {
      WriteFileBytes(damaged, std::vector<char>(original.begin(),
                                                original.begin() + offset));
      EXPECT_FALSE(load_and_resave(damaged, resaved).ok())
          << "truncated at byte " << offset;

      std::vector<char> flipped = original;
      flipped[offset] ^= static_cast<char>(0xFF);
      WriteFileBytes(damaged, flipped);
      if (load_and_resave(damaged, resaved).ok()) {
        accepted.push_back(offset);
        EXPECT_EQ(ReadFileBytes(resaved), flipped)
            << "flip at byte " << offset << " loaded but does not round-trip";
      }
    }
    EXPECT_LT(g_largest_new.load(std::memory_order_relaxed), size_t{1} << 20)
        << "a damaged header drove a large allocation";
    return accepted;
  }
};

TEST_F(CorruptionSweepTest, ModelParameters) {
  Rng rng(14);
  auto make_model = [&rng] {
    auto model = std::make_unique<nn::Sequential>();
    model->Append(std::make_unique<nn::Linear>(6, 10, &rng));
    model->Append(std::make_unique<nn::Relu>());
    model->Append(std::make_unique<nn::Linear>(10, 4, &rng));
    return model;
  };
  const std::string path = Path("sweep_model.bin");
  ASSERT_TRUE(SaveModelParameters(make_model().get(), path).ok());
  std::unique_ptr<nn::Sequential> target = make_model();
  const std::vector<size_t> accepted =
      Sweep(path, [&](const std::string& in, const std::string& out) {
        UHSCM_RETURN_NOT_OK(LoadModelParameters(target.get(), in));
        return SaveModelParameters(target.get(), out);
      });
  EXPECT_TRUE(accepted.empty()) << "every byte is checksummed or checked";
}

TEST_F(CorruptionSweepTest, HashingNetwork) {
  Rng rng(15);
  core::HashingNetworkOptions options;
  options.hidden1 = 8;
  options.hidden2 = 6;
  options.bits = 16;
  const core::HashingNetwork network(5, options, &rng);
  const std::string path = Path("sweep_hashnet.bin");
  ASSERT_TRUE(SaveHashingNetwork(network, path).ok());
  const std::vector<size_t> accepted =
      Sweep(path, [](const std::string& in, const std::string& out) {
        Result<std::unique_ptr<core::HashingNetwork>> loaded =
            LoadHashingNetwork(in);
        if (!loaded.ok()) return loaded.status();
        return SaveHashingNetwork(**loaded, out);
      });
  EXPECT_TRUE(accepted.empty()) << "every byte is checksummed or checked";
}

TEST_F(CorruptionSweepTest, CodesV1) {
  Rng rng(16);
  const std::string path = Path("sweep_codes_v1.bin");
  ASSERT_TRUE(SavePackedCodes(RandomPacked(20, 64, &rng), path).ok());
  const std::vector<size_t> accepted =
      Sweep(path, [](const std::string& in, const std::string& out) {
        Result<index::PackedCodes> loaded = LoadPackedCodes(in);
        if (!loaded.ok()) return loaded.status();
        return SavePackedCodes(*loaded, out);
      });
  EXPECT_TRUE(accepted.empty()) << "every byte is checksummed or checked";
}

TEST_F(CorruptionSweepTest, ServingSnapshotV2WithTombstones) {
  Rng rng(17);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(70, 96, &rng);
  snapshot.epoch = 42;
  snapshot.tombstone_words = {(1ULL << 3) | (1ULL << 40), 1ULL << 5};
  const std::string path = Path("sweep_snapshot_v2.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  const std::vector<size_t> accepted =
      Sweep(path, [](const std::string& in, const std::string& out) {
        Result<CodesSnapshot> loaded = LoadCodesSnapshot(in);
        if (!loaded.ok()) return loaded.status();
        return SaveCodesSnapshot(*loaded, out);
      });
  // The epoch (bytes 8..15, after magic and version) is covered by the
  // tombstone section's checksum, like every other byte.
  EXPECT_TRUE(accepted.empty()) << "every byte is checksummed or checked";
}

}  // namespace
}  // namespace uhscm::io
