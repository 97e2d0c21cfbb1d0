#include "nn/trainer.hpp"

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/logging.hpp"

#include <algorithm>

namespace prodigy::nn {

std::vector<std::vector<std::size_t>> make_batches(std::size_t n,
                                                   std::size_t batch_size,
                                                   util::Rng& rng) {
  if (batch_size == 0) batch_size = 1;
  const auto perm = rng.permutation(n);
  std::vector<std::vector<std::size_t>> batches;
  batches.reserve((n + batch_size - 1) / batch_size);
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t stop = std::min(n, start + batch_size);
    batches.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(start),
                         perm.begin() + static_cast<std::ptrdiff_t>(stop));
  }
  return batches;
}

bool EarlyStopping::update(double validation_loss) noexcept {
  if (patience_ == 0) return false;
  if (validation_loss < best_) {
    best_ = validation_loss;
    since_best_ = 0;
    return false;
  }
  ++since_best_;
  return since_best_ >= patience_;
}

TrainHistory fit_reconstruction(Mlp& model, const tensor::Matrix& data,
                                const TrainOptions& options) {
  util::Rng rng(options.seed);
  TrainHistory history;

  // Optional validation carve-out from the tail of a shuffled copy.
  const auto perm = rng.permutation(data.rows());
  std::size_t val_count = 0;
  if (options.validation_split > 0.0 && data.rows() >= 4) {
    val_count = static_cast<std::size_t>(options.validation_split *
                                         static_cast<double>(data.rows()));
    val_count = std::min(val_count, data.rows() - 1);
  }
  const std::size_t train_count = data.rows() - val_count;
  std::vector<std::size_t> train_idx(perm.begin(),
                                     perm.begin() + static_cast<std::ptrdiff_t>(train_count));
  std::vector<std::size_t> val_idx(perm.begin() + static_cast<std::ptrdiff_t>(train_count),
                                   perm.end());
  const tensor::Matrix train = data.select_rows(train_idx);
  const tensor::Matrix validation = data.select_rows(val_idx);

  Adam optimizer(options.learning_rate);
  model.register_with(optimizer);
  EarlyStopping stopper(options.early_stopping_patience);

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::size_t epoch_rows = 0;
    for (const auto& batch : make_batches(train.rows(), options.batch_size, rng)) {
      const tensor::Matrix x = train.select_rows(batch);
      model.zero_gradients();
      const tensor::Matrix reconstruction = model.forward(x);
      const LossResult loss = mse_loss(reconstruction, x);
      model.backward_params(loss.grad);
      optimizer.step();
      // loss.value is a per-batch mean: weight it by rows so a ragged tail
      // batch counts for its rows, not as much as a full batch.
      epoch_loss += loss.value * static_cast<double>(x.rows());
      epoch_rows += x.rows();
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, epoch_rows));
    history.train_loss.push_back(epoch_loss);
    ++history.epochs_run;

    if (val_count > 0) {
      const tensor::Matrix rec = model.forward_inference(validation);
      const double val_loss = mse_loss(rec, validation).value;
      history.validation_loss.push_back(val_loss);
      if (stopper.update(val_loss)) {
        history.stopped_early = true;
        break;
      }
    }
    if (options.verbose && epoch % 50 == 0) {
      util::log_info("fit_reconstruction epoch ", epoch, " loss ", epoch_loss);
    }
  }
  return history;
}

}  // namespace prodigy::nn
