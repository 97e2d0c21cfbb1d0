// Gradient-descent optimizers.  Parameter buffers are registered once; each
// step() consumes the accumulated gradients of the registered buffers.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace prodigy::nn {

/// A view over one parameter buffer and its gradient buffer (equal length).
struct ParamView {
  double* param = nullptr;
  double* grad = nullptr;
  std::size_t size = 0;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Registers a buffer; must be called before the first step().
  virtual void register_parameters(ParamView view) = 0;

  /// Applies one update using the current gradients (does not zero them).
  virtual void step() = 0;

  virtual double learning_rate() const noexcept = 0;
  virtual void set_learning_rate(double lr) noexcept = 0;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0);

  void register_parameters(ParamView view) override;
  void step() override;
  double learning_rate() const noexcept override { return lr_; }
  void set_learning_rate(double lr) noexcept override { lr_ = lr; }

 private:
  double lr_;
  double momentum_;
  std::vector<ParamView> views_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam with bias correction.  step() treats the registered views as one
/// concatenated parameter vector cut into kChunk-element chunks and updates
/// the chunks across the global thread pool.  Every element's update is
/// independent and runs the same IEEE operation sequence on any chunk, lane
/// or thread, so the result is bit-identical for any pool size.
class Adam final : public Optimizer {
 public:
  /// Elements per chunk of the pool split (the last chunk is ragged; a
  /// chunk may span several views).  A model of one chunk or less updates
  /// inline on the calling thread.
  static constexpr std::size_t kChunk = 8192;

  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  void register_parameters(ParamView view) override;
  void step() override;
  double learning_rate() const noexcept override { return lr_; }
  void set_learning_rate(double lr) noexcept override { lr_ = lr; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::size_t t_ = 0;
  std::vector<ParamView> views_;
  std::vector<std::size_t> offsets_;  // view k starts at offsets_[k] in m_/v_
  std::vector<double> m_;             // first moments, all views concatenated
  std::vector<double> v_;             // second moments, same layout
};

}  // namespace prodigy::nn
