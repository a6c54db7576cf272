#ifndef UHSCM_LINALG_OPS_H_
#define UHSCM_LINALG_OPS_H_

#include <vector>

#include "index/hamming_kernels.h"
#include "linalg/matrix.h"

namespace uhscm::linalg {

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). Parallel over row
/// blocks. Products with at least 2^18 multiply-adds go through the
/// packed-panel GEMM: B is packed once into 16-wide j-panels, and each
/// kGemmMC-row block of C runs a register-tile micro-kernel (6x32 over
/// two panels in zmm registers on the AVX-512 tier, 6x16 in ymm registers
/// on the AVX2 tier, a portable 6x16 C-array kernel on the scalar tier).
/// Smaller products stay on the cache-blocked loop (MatMulBlocked). The
/// AVX2 and AVX-512 tiers give every C element the same FMA chain, so
/// their results are byte-identical on every shape.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n). Same packed-panel
/// dispatch as MatMul (the packing step absorbs the transpose).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n). Same packed-panel
/// dispatch as MatMul (the packing step absorbs the transpose).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// The pre-packing cache-blocked implementation of MatMul, kept as the
/// portable fallback for small products and as the baseline the
/// micro-kernel benches compare against (bench/micro_perf.cc
/// BM_PackedGemm).
Matrix MatMulBlocked(const Matrix& a, const Matrix& b);

/// The micro-kernel tier packed products run on: the kernel-tier chain of
/// index::ActiveKernelTier() (UHSCM_FORCE_TIER, UHSCM_FORCE_SCALAR, the
/// build default, then the best tier of the CPU), graded down to what the
/// GEMM can run here — kAvx512 needs AVX-512F besides AVX2+FMA, kAvx2
/// needs AVX2+FMA. The forced-tier CI legs thereby cover every GEMM
/// kernel the same way they cover the Hamming kernels. kScalar runs the
/// portable 6x16 micro-kernel, which rounds each multiply and add
/// separately and so matches the SIMD tiers within reassociation
/// tolerance, not bytewise.
index::KernelTier PackedGemmTier();

/// True when the packed GEMM can run on `tier` on this CPU, whatever tier
/// is active.
bool PackedGemmTierAvailable(index::KernelTier tier);

/// op(A) * op(B) through the packed GEMM on an explicit micro-kernel tier,
/// whatever the product's size and the active tier; op transposes when the
/// flag is set, as in MatMulTransA/MatMulTransB. MatMul and its transposed
/// variants call this with PackedGemmTier() for large products; the
/// cross-kernel identity tests call it per tier. Precondition:
/// PackedGemmTierAvailable(tier).
Matrix PackedMatMulOnTier(index::KernelTier tier, const Matrix& a,
                          bool a_trans, const Matrix& b, bool b_trans);

/// Row-block height of the packed GEMM: one parallel work unit of MatMul,
/// and the block size the hashing network's fused inference pass walks.
inline constexpr int kGemmMC = 96;

/// \brief The right-hand operand of C = A * B, prepared once so that C can
/// be computed one row block at a time.
///
/// For callers that fuse per-row work between products (the hashing
/// network's inference pass): construct one per product, then call
/// MultiplyRows from any number of threads. It is const and serial, so it
/// is safe inside a ParallelFor body. `total_rows` is the m of the whole
/// product; it picks the packed or the blocked kernel by MatMul's rule,
/// so row blocks that start at multiples of kGemmMC reproduce MatMul(A, B)
/// byte for byte. `b` must outlive this object: the blocked kernel reads
/// it in place.
class MatMulRhs {
 public:
  MatMulRhs(const Matrix& b, int total_rows);

  /// c = a * B for `rows` rows. `a` is rows x B.rows() and `c` rows x
  /// B.cols(), both row-major and dense; c is overwritten.
  void MultiplyRows(const float* a, int rows, float* c) const;

 private:
  const Matrix* b_;
  index::KernelTier tier_;
  /// B in the packed GEMM's j-panel layout, every slab; empty when the
  /// product is below the packed threshold.
  std::vector<float> packed_;
};

/// y = A * x. Precondition: x.size() == A.cols().
Vector MatVec(const Matrix& a, const Vector& x);

/// Dot product. Precondition: equal sizes.
float Dot(const float* a, const float* b, int n);
float Dot(const Vector& a, const Vector& b);

/// Euclidean norm of a buffer.
float Norm2(const float* a, int n);
float Norm2(const Vector& a);

/// Squared Euclidean distance between two buffers.
float SquaredDistance(const float* a, const float* b, int n);

/// Cosine similarity of two buffers; 0 if either has zero norm.
float CosineSimilarity(const float* a, const float* b, int n);

/// Normalizes each row of m to unit L2 norm (rows with ~zero norm are left
/// untouched).
void NormalizeRowsL2(Matrix* m);

/// Row-wise softmax with temperature: out(i,j) =
/// exp(tau*m(i,j)) / sum_k exp(tau*m(i,k)). Numerically stabilized by
/// subtracting the row max.
Matrix SoftmaxRows(const Matrix& m, float tau);

/// S(i,j) = cosine(a.row(i), b.row(j)); shape (a.rows x b.rows).
/// Parallel over rows of a.
Matrix PairwiseCosine(const Matrix& a, const Matrix& b);

/// Self-similarity shortcut: PairwiseCosine(a, a) exploiting symmetry.
Matrix SelfCosine(const Matrix& a);

/// Column means of m (size cols).
Vector ColumnMeans(const Matrix& m);

/// Subtracts `mean` from every row in place.
void CenterRows(Matrix* m, const Vector& mean);

/// Covariance of rows: (1/(n-1)) X_c^T X_c where X_c is m centered.
Matrix Covariance(const Matrix& m);

/// Element-wise sign into {-1, +1} (sign(0) := +1, matching the paper's
/// sgn which returns -1 only for negative inputs — 0 maps to -1 there; we
/// map 0 to +1 which changes measure-zero events only and keeps codes in
/// {-1,+1}).
Matrix Sign(const Matrix& m);

/// Element-wise tanh.
Matrix Tanh(const Matrix& m);

/// Mean of all entries.
float Mean(const Matrix& m);

}  // namespace uhscm::linalg

#endif  // UHSCM_LINALG_OPS_H_
