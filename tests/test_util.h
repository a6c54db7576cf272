#ifndef UHSCM_TESTS_TEST_UTIL_H_
#define UHSCM_TESTS_TEST_UTIL_H_

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "features/cnn_features.h"
#include "linalg/matrix.h"
#include "vlp/simulated_vlp.h"

namespace uhscm::testing {

/// Random {-1,+1} code matrix — the corpus shape every index/serve test
/// scans.
inline linalg::Matrix RandomSignCodes(int n, int bits, Rng* rng) {
  linalg::Matrix m(n, bits);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return m;
}

/// Byte equality of two matrices (memcmp), so -0 vs +0 and NaN payloads
/// count as different.
inline bool SameBytes(const linalg::Matrix& x, const linalg::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// A small, fully wired synthetic environment shared by the heavier
/// tests: world + one dataset + vocab + VLP + CNN extractor, all at
/// tiny-n scale so each test runs in well under a second of training.
struct TinyEnv {
  std::unique_ptr<data::SemanticWorld> world;
  data::Dataset dataset;
  data::ConceptVocab vocab;
  std::unique_ptr<vlp::SimulatedVlpModel> vlp;
  std::unique_ptr<features::SimulatedCnnFeatureExtractor> extractor;
};

inline TinyEnv MakeTinyEnv(const std::string& dataset_name = "cifar",
                           int database = 300, int train = 120,
                           int query = 60, uint64_t seed = 7) {
  TinyEnv env;
  data::WorldOptions world_options;
  world_options.pixel_dim = 96;
  env.world = std::make_unique<data::SemanticWorld>(seed, world_options);

  data::SyntheticOptions options = data::DefaultOptionsFor(dataset_name);
  options.sizes.database = database;
  options.sizes.train = train;
  options.sizes.query = query;

  Rng rng(seed + 1);
  env.dataset = data::MakeDatasetByName(dataset_name, env.world.get(),
                                        options, &rng);
  env.vocab = data::MakeNusVocab(env.world.get());

  vlp::VlpOptions vlp_options;
  vlp_options.embed_dim = 64;
  env.vlp = std::make_unique<vlp::SimulatedVlpModel>(env.world.get(),
                                                     vlp_options);

  features::CnnFeatureOptions feat_options;
  feat_options.feature_dim = 128;
  feat_options.hidden_dim = 96;
  env.extractor = std::make_unique<features::SimulatedCnnFeatureExtractor>(
      env.world->pixel_dim(), feat_options);
  return env;
}

}  // namespace uhscm::testing

#endif  // UHSCM_TESTS_TEST_UTIL_H_
