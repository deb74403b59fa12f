#include "tensor/tensor.hpp"

#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace photon {
namespace {

std::size_t shape_product(const std::vector<std::int64_t>& shape) {
  std::size_t n = 1;
  for (std::int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)), data_(shape_product(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_product(shape_)) {
    throw std::invalid_argument("Tensor: data size does not match shape");
  }
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = rng.gaussian(0.0f, stddev);
  return t;
}

Tensor Tensor::uniform(std::vector<std::int64_t> shape, Rng& rng, float lo,
                       float hi) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) t.data_[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return t;
}

std::size_t Tensor::flat_index(std::initializer_list<std::int64_t> idx) const {
  if (idx.size() != shape_.size()) {
    throw std::invalid_argument("Tensor::at: rank mismatch");
  }
  std::size_t flat = 0;
  std::size_t d = 0;
  for (std::int64_t i : idx) {
    if (i < 0 || i >= shape_[d]) throw std::out_of_range("Tensor::at: index");
    flat = flat * static_cast<std::size_t>(shape_[d]) + static_cast<std::size_t>(i);
    ++d;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data_[flat_index(idx)];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data_[flat_index(idx)];
}

Tensor Tensor::reshaped(std::vector<std::int64_t> shape) const {
  if (shape_product(shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: element count mismatch");
  }
  return Tensor(std::move(shape), data_);
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor +=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor -=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scale) {
  for (auto& x : data_) x *= scale;
  return *this;
}

void Tensor::fill(float value) {
  for (auto& x : data_) x = value;
}

float Tensor::l2_norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

float Tensor::dot(const Tensor& rhs) const {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor::dot: shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    s += static_cast<double>(data_[i]) * rhs.data_[i];
  }
  return static_cast<float>(s);
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::abs(x));
  return m;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  if (rank() != 2 || rhs.rank() != 2 || shape_[1] != rhs.shape_[0]) {
    throw std::invalid_argument("Tensor::matmul: requires (m,k)x(k,n)");
  }
  const auto m = shape_[0], k = shape_[1], n = rhs.shape_[1];
  Tensor out({m, n});
  kernels::matmul(kernels::default_context(), out.data(), data(), rhs.data(),
                  static_cast<int>(m), static_cast<int>(k),
                  static_cast<int>(n));
  return out;
}

bool Tensor::allclose(const Tensor& rhs, float atol, float rtol) const {
  if (!same_shape(rhs)) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const float diff = std::abs(data_[i] - rhs.data_[i]);
    if (diff > atol + rtol * std::abs(rhs.data_[i])) return false;
  }
  return true;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    os << shape_[i] << (i + 1 < shape_.size() ? ", " : "");
  }
  os << ")";
  return os.str();
}

}  // namespace photon
