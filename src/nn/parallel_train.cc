#include "nn/parallel_train.h"

#include <algorithm>
#include <vector>

#include "nn/optimizer.h"

namespace alicoco::nn {

void ParallelTrainer::Train(ParameterStore* store, float lr, int epochs,
                            int batch_size, size_t n, Rng* rng,
                            const ExampleFn& fn) {
  Adam adam(lr);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const size_t batch = static_cast<size_t>(std::max(1, batch_size));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    store->ZeroGrad();
    for (size_t start = 0; start < n; start += batch) {
      AccumulateBatch(std::min(batch, n - start),
                      [&](Graph* g, size_t bi) -> float {
                        return fn(g, order[start + bi], epoch);
                      });
      adam.Step(store);
      store->ZeroGrad();
    }
  }
}

float ParallelTrainer::AccumulateBatch(size_t count, const BatchFn& fn) {
  if (pool_ == nullptr) {
    float total = 0.0f;
    for (size_t i = 0; i < count; ++i) {
      Graph g;  // no buffer: gradients land directly in Parameter::grad
      total += fn(&g, i);
    }
    return total;
  }

  const size_t shards = std::min(count, kShards);
  if (shards == 0) return 0.0f;
  const size_t per = (count + shards - 1) / shards;
  float losses[kShards] = {};
  for (size_t s = 0; s < shards; ++s) {
    const size_t lo = s * per;
    const size_t hi = std::min(count, lo + per);
    if (lo >= hi) break;
    pool_->Submit([this, s, lo, hi, &fn, &losses] {
      float local = 0.0f;
      for (size_t i = lo; i < hi; ++i) {
        Graph g(&buffers_[s]);
        local += fn(&g, i);
      }
      losses[s] = local;
    });
  }
  pool_->Wait();

  float total = 0.0f;
  for (size_t s = 0; s < shards; ++s) total += losses[s];
  // Deterministic reduction: shard order, coordinating thread only.
  for (size_t s = 0; s < shards; ++s) buffers_[s].ReduceInto();
  return total;
}

}  // namespace alicoco::nn
