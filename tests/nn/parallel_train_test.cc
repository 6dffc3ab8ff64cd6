// Tests for the shared training loop and its data-parallel gradient
// accumulation: GradientBuffer reduction, parallel-vs-sequential
// equivalence of a real training step, bit-identity across pool sizes, and
// a stress test sized for ThreadSanitizer (many concurrent backward passes
// against one shared ParameterStore).

#include "nn/parallel_train.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace alicoco::nn {
namespace {

TEST(ParallelTrainingTest, GradientBufferReducesIntoParameter) {
  Rng rng(7);
  ParameterStore store;
  Parameter* p = store.Create("p", 2, 3, ParameterStore::Init::kGaussian,
                              &rng, 1.0f);
  store.ZeroGrad();
  GradientBuffer buf_a, buf_b;
  buf_a.GradFor(p)->At(0, 0) = 1.5f;
  buf_b.GradFor(p)->At(0, 0) = 2.0f;
  buf_b.GradFor(p)->At(1, 2) = -1.0f;
  buf_a.ReduceInto();
  buf_b.ReduceInto();
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(p->grad.At(1, 2), -1.0f);
  // Buffers are zeroed by the reduction: reducing again is a no-op.
  buf_a.ReduceInto();
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 3.5f);
}

TEST(ParallelTrainingTest, ExampleSeedIsPerExample) {
  EXPECT_EQ(ExampleSeed(1, 0, 0), ExampleSeed(1, 0, 0));
  EXPECT_NE(ExampleSeed(1, 0, 0), ExampleSeed(1, 0, 1));
  EXPECT_NE(ExampleSeed(1, 0, 0), ExampleSeed(1, 1, 0));
  EXPECT_NE(ExampleSeed(1, 0, 0), ExampleSeed(2, 0, 0));
}

// One batch of 13 examples through a small model; appends every parameter
// gradient to `grads` and returns the summed loss.
float RunBatch(ThreadPool* pool, std::vector<float>* grads) {
  const int kIn = 6, kOut = 4, kBatch = 13;
  Rng rng(20);
  ParameterStore store;
  Linear fc(&store, "fc", kIn, kOut, &rng);
  Rng input_rng(21);
  std::vector<Tensor> xs;
  for (int i = 0; i < kBatch; ++i) {
    xs.push_back(Tensor::Randn(1, kIn, 1.0f, &input_rng));
  }
  store.ZeroGrad();
  ParallelTrainer trainer(pool);
  float loss = trainer.AccumulateBatch(
      static_cast<size_t>(kBatch), [&](Graph* g, size_t i) -> float {
        Graph::Var y = fc.ApplyTanh(g, g->Input(xs[i]));
        Graph::Var l = g->MeanAll(g->Mul(y, y));
        g->Backward(l);
        return g->Value(l).At(0, 0);
      });
  for (const auto& p : store.params()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      grads->push_back(p->grad.data()[i]);
    }
  }
  return loss;
}

// The pooled path must produce the same batch gradient as the sequential
// path, up to float summation order.
TEST(ParallelTrainingTest, PooledBatchMatchesSequential) {
  std::vector<float> seq_grads, par_grads;
  float seq_loss = RunBatch(nullptr, &seq_grads);
  ThreadPool pool(4);
  float par_loss = RunBatch(&pool, &par_grads);

  EXPECT_NEAR(seq_loss, par_loss, 1e-4f * std::fabs(seq_loss) + 1e-6f);
  ASSERT_EQ(seq_grads.size(), par_grads.size());
  for (size_t i = 0; i < seq_grads.size(); ++i) {
    EXPECT_NEAR(seq_grads[i], par_grads[i],
                1e-4f * std::fabs(seq_grads[i]) + 1e-6f);
  }
}

// The shard layout depends on the batch alone, so every pool size sums the
// batch gradient in the same order: bit-identical results.
TEST(ParallelTrainingTest, PoolSizeDoesNotChangeGradients) {
  std::vector<float> ref_grads;
  float ref_loss;
  {
    ThreadPool pool(1);
    ref_loss = RunBatch(&pool, &ref_grads);
  }
  for (size_t threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    std::vector<float> grads;
    float loss = RunBatch(&pool, &grads);
    EXPECT_EQ(loss, ref_loss) << threads << " threads";
    EXPECT_EQ(grads, ref_grads) << threads << " threads";
  }
}

// Train owns the epoch loop: every example is visited once per epoch, in a
// freshly shuffled order, and the parameters move.
TEST(ParallelTrainingTest, TrainVisitsEachExampleOncePerEpoch) {
  const int kEpochs = 3;
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1, ParameterStore::Init::kZero,
                              nullptr);
  std::vector<int> visits(10, 0);
  std::vector<std::vector<size_t>> orders(kEpochs);
  Rng rng(9);
  ParallelTrainer(nullptr).Train(
      &store, 0.1f, kEpochs, /*batch_size=*/4, visits.size(), &rng,
      [&](Graph* g, size_t example, int epoch) -> float {
        ++visits[example];
        orders[static_cast<size_t>(epoch)].push_back(example);
        Tensor target(1, 1);
        target.At(0, 0) = 1.0f;
        Graph::Var l = g->SigmoidCrossEntropyWithLogits(g->Use(w), target);
        g->Backward(l);
        return g->Value(l).At(0, 0);
      });
  for (int v : visits) EXPECT_EQ(v, kEpochs);
  EXPECT_NE(orders[0], orders[1]);
  EXPECT_GT(w->value.At(0, 0), 0.0f);
}

// TSan stress: several epochs of pooled minibatches over a model with an
// embedding table (scatter-add gradients) and dense layers. Any gradient
// write that bypasses the per-shard buffers is a data race on the shared
// parameters and shows up under -fsanitize=thread.
TEST(ParallelTrainingTest, StressConcurrentGradientAccumulation) {
  const int kVocab = 40, kDim = 8, kBatch = 16, kSteps = 12;
  Rng rng(31);
  ParameterStore store;
  Embedding emb(&store, "emb", kVocab, kDim, &rng);
  Linear fc(&store, "fc", kDim, 1, &rng);
  Adam adam(0.05f);
  ThreadPool pool(4);
  ParallelTrainer trainer(&pool);

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < kSteps; ++step) {
    store.ZeroGrad();
    float loss = trainer.AccumulateBatch(
        static_cast<size_t>(kBatch), [&](Graph* g, size_t i) -> float {
          // Fixed example set (seed does not depend on step): the model
          // memorizes 16 examples, so the loss reliably decreases.
          Rng ex_rng(ExampleSeed(99, 0, i));
          std::vector<int> ids;
          for (int t = 0; t < 5; ++t) {
            ids.push_back(static_cast<int>(ex_rng.Uniform(kVocab)));
          }
          Graph::Var h = g->MeanRows(emb.Lookup(g, ids));
          Graph::Var logit = fc.Apply(g, h);
          Tensor target(1, 1);
          target.At(0, 0) = static_cast<float>(i % 2);
          Graph::Var l = g->SigmoidCrossEntropyWithLogits(logit, target);
          g->Backward(l);
          return g->Value(l).At(0, 0);
        });
    if (step == 0) first_loss = loss;
    last_loss = loss;
    adam.Step(&store);
  }
  EXPECT_TRUE(std::isfinite(last_loss));
  EXPECT_LT(last_loss, first_loss);  // it memorizes the fixed batch
}

}  // namespace
}  // namespace alicoco::nn
