#include "core/hashing_network.h"

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/ops.h"
#include "nn/activations.h"

namespace uhscm::core {

namespace {

/// x(r, c) = relu(x(r, c) + bias[c]) with the float ops of Linear::Forward
/// and Relu::Forward, so the fused pass reproduces their bytes.
void AddBiasRelu(float* x, int rows, const linalg::Matrix& bias) {
  const int cols = bias.cols();
  const float* b = bias.Row(0);
  for (int r = 0; r < rows; ++r) {
    float* row = x + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      const float v = row[c] + b[c];
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
}

/// x(r, c) = sgn(x(r, c) + bias[c]) with linalg::Sign's convention
/// (negative -> -1, everything else -> +1).
void AddBiasSign(float* x, int rows, const linalg::Matrix& bias) {
  const int cols = bias.cols();
  const float* b = bias.Row(0);
  for (int r = 0; r < rows; ++r) {
    float* row = x + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      row[c] = row[c] + b[c] < 0.0f ? -1.0f : 1.0f;
    }
  }
}

/// Grows a per-thread buffer to at least `floats` and returns its data.
float* Scratch(std::vector<float>* buffer, size_t floats) {
  if (buffer->size() < floats) buffer->resize(floats);
  return buffer->data();
}

}  // namespace

HashingNetwork::HashingNetwork(int input_dim,
                               const HashingNetworkOptions& options, Rng* rng)
    : input_dim_(input_dim), options_(options) {
  UHSCM_CHECK(input_dim > 0, "HashingNetwork: input_dim must be positive");
  UHSCM_CHECK(options.bits > 0, "HashingNetwork: bits must be positive");
  const int widths[4] = {input_dim, options.hidden1, options.hidden2,
                         options.bits};
  for (int l = 0; l < 3; ++l) {
    auto linear = std::make_unique<nn::Linear>(widths[l], widths[l + 1], rng);
    linear_[static_cast<size_t>(l)] = linear.get();
    model_.Append(std::move(linear));
    if (l < 2) {
      model_.Append(std::make_unique<nn::Relu>());
    } else {
      model_.Append(std::make_unique<nn::Tanh>());
    }
  }
}

linalg::Matrix HashingNetwork::Forward(const linalg::Matrix& pixels) {
  UHSCM_CHECK(pixels.cols() == input_dim_,
              "HashingNetwork::Forward: input dim mismatch");
  return model_.Forward(pixels);
}

void HashingNetwork::Backward(const linalg::Matrix& grad_codes) {
  model_.Backward(grad_codes);
}

linalg::Matrix HashingNetwork::EncodeBinary(
    const linalg::Matrix& pixels) const {
  UHSCM_CHECK(pixels.cols() == input_dim_,
              "HashingNetwork::EncodeBinary: input dim mismatch");
  const int n = pixels.rows();
  const nn::Linear& fc1 = *linear_[0];
  const nn::Linear& fc2 = *linear_[1];
  const nn::Linear& fc3 = *linear_[2];
  // Each product's packed-vs-blocked choice is made for the whole input,
  // as Forward's MatMul calls make it, so every block matches Forward.
  const linalg::MatMulRhs w1(fc1.weight(), n);
  const linalg::MatMulRhs w2(fc2.weight(), n);
  const linalg::MatMulRhs w3(fc3.weight(), n);
  linalg::Matrix codes(n, options_.bits);
  const int blocks = (n + linalg::kGemmMC - 1) / linalg::kGemmMC;
  ParallelFor(blocks, [&](int block) {
    thread_local std::vector<float> h1_buffer;
    thread_local std::vector<float> h2_buffer;
    const int r0 = block * linalg::kGemmMC;
    const int rows = std::min(linalg::kGemmMC, n - r0);
    float* h1 = Scratch(&h1_buffer,
                        static_cast<size_t>(rows) * fc1.out_features());
    float* h2 = Scratch(&h2_buffer,
                        static_cast<size_t>(rows) * fc2.out_features());
    float* out = codes.Row(r0);
    w1.MultiplyRows(pixels.Row(r0), rows, h1);
    AddBiasRelu(h1, rows, fc1.bias());
    w2.MultiplyRows(h1, rows, h2);
    AddBiasRelu(h2, rows, fc2.bias());
    w3.MultiplyRows(h2, rows, out);
    AddBiasSign(out, rows, fc3.bias());
  });
  return codes;
}

}  // namespace uhscm::core
