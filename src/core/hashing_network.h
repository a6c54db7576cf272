#ifndef UHSCM_CORE_HASHING_NETWORK_H_
#define UHSCM_CORE_HASHING_NETWORK_H_

#include <array>
#include <memory>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace uhscm::core {

/// Architecture of the hashing network: an MLP backbone standing in for
/// the paper's VGG19 with its final layer replaced by a k-dimensional
/// fully-connected layer under tanh (§3.2).
struct HashingNetworkOptions {
  int hidden1 = 512;
  int hidden2 = 256;
  int bits = 64;
};

/// \brief The hashing network H(.; W): pixels -> codes in [-1, 1]^k.
class HashingNetwork {
 public:
  HashingNetwork(int input_dim, const HashingNetworkOptions& options,
                 Rng* rng);

  /// Real-valued codes Z in [-1,1]^{n x k} (training path — caches
  /// activations for Backward()).
  linalg::Matrix Forward(const linalg::Matrix& pixels);

  /// Backpropagates dL/dZ, accumulating parameter gradients.
  void Backward(const linalg::Matrix& grad_codes);

  /// Binary codes B = sgn(H(x)) in {-1, +1}^{n x k}: the inference path.
  ///
  /// One fused pass per kGemmMC-row block (linalg/ops.h) — layer 1 GEMM,
  /// bias+ReLU, layer 2 GEMM, bias+ReLU, layer 3 GEMM, bias, sign — in
  /// per-thread buffers, with each weight matrix packed once per call.
  /// It keeps no activation caches, so it is const and safe to call from
  /// several threads at once; a following Backward() still pairs with the
  /// last Forward(). The output tanh is skipped: sgn(tanh z) = sgn z for
  /// every float z, ±0 included, so the codes are byte-identical to
  /// linalg::Sign(Forward(pixels)).
  linalg::Matrix EncodeBinary(const linalg::Matrix& pixels) const;

  nn::Sequential* model() { return &model_; }
  int bits() const { return options_.bits; }
  int input_dim() const { return input_dim_; }
  const HashingNetworkOptions& options() const { return options_; }

 private:
  int input_dim_;
  HashingNetworkOptions options_;
  nn::Sequential model_;
  /// The three Linear layers inside model_, which owns them; EncodeBinary
  /// reads their weights directly.
  std::array<const nn::Linear*, 3> linear_{};
};

}  // namespace uhscm::core

#endif  // UHSCM_CORE_HASHING_NETWORK_H_
