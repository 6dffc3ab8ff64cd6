// The minibatch training loop shared by every model.
//
// ParallelTrainer::Train owns the example order, its per-epoch shuffle,
// contiguous batches (the last one may be short) and one Adam step per
// batch; a model supplies only the per-example body.
//
// With a pool, each batch is split into kShards contiguous shards. Each
// shard builds its graphs against a private GradientBuffer, and after the
// batch barrier the buffers are reduced into Parameter::grad on the calling
// thread, in shard order. The layout depends on the batch size alone, so a
// pooled model is bit-identical for every pool size. Per-example randomness
// in a pooled body must come from an Rng seeded per example (ExampleSeed),
// not from a stream shared across the batch. With a null pool the batch
// runs in order on the calling thread, straight into Parameter::grad; it
// differs from a pooled run only in the gradient summation order.

#ifndef ALICOCO_NN_PARALLEL_TRAIN_H_
#define ALICOCO_NN_PARALLEL_TRAIN_H_

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/graph.h"

namespace alicoco::nn {

/// Mixes a base seed with an (epoch, example) coordinate into an
/// independent per-example stream (splitmix64 finalizer). Thread-count
/// invariant: the stream depends only on which example is being processed.
inline uint64_t ExampleSeed(uint64_t base, uint64_t epoch, uint64_t example) {
  uint64_t z = base + 0x9E3779B97F4A7C15ull * (epoch + 1) +
               0xBF58476D1CE4E5B9ull * (example + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

/// Runs minibatch training, sharding each batch across an optional pool.
class ParallelTrainer {
 public:
  /// Contiguous shards per pooled batch (fewer when the batch is smaller).
  static constexpr size_t kShards = 4;

  /// Builds the graph for example `index` of a batch, runs Backward itself,
  /// and returns the example loss. It must only touch shared model state
  /// read-only.
  using BatchFn = std::function<float(Graph* g, size_t index)>;
  /// The per-example body of Train: `example` indexes the training data.
  using ExampleFn = std::function<float(Graph* g, size_t example, int epoch)>;

  explicit ParallelTrainer(ThreadPool* pool) : pool_(pool) {}

  /// Trains `store`'s parameters with Adam(lr) for `epochs` passes over the
  /// examples [0, n). Each epoch shuffles the visiting order with `rng`
  /// (the order persists across epochs, as each shuffle permutes the last)
  /// and walks it in contiguous batches of max(1, batch_size); every batch
  /// ends in one optimizer step. Without a pool, examples run in order, so
  /// the body may draw from `rng` as well.
  void Train(ParameterStore* store, float lr, int epochs, int batch_size,
             size_t n, Rng* rng, const ExampleFn& fn);

  /// Runs fn over [0, count), accumulating gradients into Parameter::grad
  /// (via per-shard buffers when pooled). Returns the summed loss. The
  /// caller applies the optimizer step afterwards.
  float AccumulateBatch(size_t count, const BatchFn& fn);

 private:
  ThreadPool* pool_;
  GradientBuffer buffers_[kShards];
};

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_PARALLEL_TRAIN_H_
