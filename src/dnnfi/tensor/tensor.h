// Dense CHW tensors. Single-image inference uses rank-3 (C,H,W) logical
// shapes; weights use rank-4 (Co,Ci,Kh,Kw). Everything is stored row-major
// in one contiguous vector so a fault-site "element index" maps 1:1 to a
// buffer word in the accelerator model.
//
// Two storage forms share one element layout:
//   Tensor<T>      — owning, growable; golden traces and parameters.
//   TensorView<T>  — non-owning window over arena/workspace storage; the
//                    execution engine's currency (zero allocation, zero
//                    copy). TensorView<const T> is the read-only form and
//                    every Tensor converts to it implicitly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "dnnfi/common/expects.h"
#include "dnnfi/numeric/simd_convert.h"
#include "dnnfi/numeric/traits.h"

// DNNFI_CHECKED_ACCESS controls the per-element bounds checks in
// Shape::index / Tensor::operator[] / TensorView::operator[] — the checks
// that sit inside the MAC inner loops. They default ON in Debug builds and
// OFF in Release (where the ASan/UBSan CI job takes over the guarding
// duty); tests always compile with them ON, and the -DDNNFI_CHECKED_ACCESS
// CMake option forces them ON everywhere. The checked-ness is threaded
// through a defaulted template parameter so checked and unchecked
// instantiations have distinct symbols: TUs compiled in different modes can
// link together without ODR aliasing.
#if !defined(DNNFI_CHECKED_ACCESS)
#if defined(NDEBUG)
#define DNNFI_CHECKED_ACCESS 0
#else
#define DNNFI_CHECKED_ACCESS 1
#endif
#endif

namespace dnnfi::tensor {

namespace detail {
constexpr bool kCheckedAccess = (DNNFI_CHECKED_ACCESS != 0);

constexpr void check_access(bool ok, const char* expr,
                            const std::source_location& loc) {
  ::dnnfi::detail::contract_check(ok, "Bounds", expr, loc);
}
}  // namespace detail

/// Logical shape with up to 4 dimensions (unused leading dims are 1).
struct Shape {
  std::size_t n = 1;  ///< outermost (batch or output-channel count)
  std::size_t c = 1;  ///< channels (or input channels for weights)
  std::size_t h = 1;  ///< rows
  std::size_t w = 1;  ///< columns

  constexpr std::size_t size() const noexcept { return n * c * h * w; }

  template <bool Checked = detail::kCheckedAccess>
  constexpr std::size_t index(std::size_t in, std::size_t ic, std::size_t ih,
                              std::size_t iw) const {
    if constexpr (Checked) {
      detail::check_access(in < n && ic < c && ih < h && iw < w,
                           "in < n && ic < c && ih < h && iw < w",
                           std::source_location::current());
    }
    return ((in * c + ic) * h + ih) * w + iw;
  }

  friend constexpr bool operator==(const Shape&, const Shape&) = default;
};

/// Channel-major shape helper for single images.
constexpr Shape chw(std::size_t c, std::size_t h, std::size_t w) {
  return Shape{1, c, h, w};
}
/// Weight shape helper: Co output channels, Ci input channels, Kh x Kw.
constexpr Shape oihw(std::size_t co, std::size_t ci, std::size_t kh,
                     std::size_t kw) {
  return Shape{co, ci, kh, kw};
}
/// Flat vector shape.
constexpr Shape vec(std::size_t len) { return Shape{1, 1, 1, len}; }

template <typename T>
class Tensor;

/// Non-owning shaped window over contiguous storage (a Tensor or a
/// Workspace arena). `TensorView<const T>` is the read-only form.
///
/// A view is a reference: copying it never copies elements, and const-ness
/// of the view object does not protect the elements (like std::span).
/// Views do not outlive the storage they were created from.
template <typename T>
class TensorView {
 public:
  using value_type = std::remove_const_t<T>;

  TensorView() = default;

  /// Views `data` (at least shape.size() elements) as `shape`.
  TensorView(Shape shape, T* data) : shape_(shape), data_(data) {}

  /// Tensors convert implicitly: Tensor<T>& -> TensorView<T>,
  /// const Tensor<T>& -> TensorView<const T>.
  TensorView(Tensor<value_type>& t) noexcept
    requires(!std::is_const_v<T>)
      : shape_(t.shape()), data_(t.data().data()) {}
  TensorView(const Tensor<value_type>& t) noexcept
    requires(std::is_const_v<T>)
      : shape_(t.shape()), data_(t.data().data()) {}

  /// Mutable views convert implicitly to read-only views. (Template so it
  /// can never be mistaken for the copy constructor, which stays defaulted.)
  template <typename U>
    requires(std::is_const_v<T> && std::is_same_v<U, value_type>)
  TensorView(const TensorView<U>& other) noexcept
      : shape_(other.shape()), data_(other.data().data()) {}

  const Shape& shape() const noexcept { return shape_; }
  std::size_t size() const noexcept { return shape_.size(); }
  bool empty() const noexcept { return size() == 0; }

  template <bool Checked = detail::kCheckedAccess>
  T& operator[](std::size_t i) const {
    if constexpr (Checked) {
      detail::check_access(i < size(), "i < view.size()",
                           std::source_location::current());
    }
    return data_[i];
  }

  T& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return data_[shape_.index(n, c, h, w)];
  }

  std::span<T> data() const noexcept { return {data_, size()}; }

  void fill(value_type v) const
    requires(!std::is_const_v<T>)
  {
    std::fill_n(data_, size(), v);
  }

  /// Copies all elements from a same-shaped source (no allocation).
  void copy_from(TensorView<const value_type> src) const
    requires(!std::is_const_v<T>)
  {
    DNNFI_EXPECTS(src.shape() == shape_);
    std::copy_n(src.data().data(), size(), data_);
  }

 private:
  Shape shape_{1, 1, 1, 0};
  T* data_ = nullptr;
};

template <typename T>
using ConstTensorView = TensorView<const T>;

/// Owning dense tensor of T.
template <typename T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(shape), data_(shape.size(), T{}) {}
  Tensor(Shape shape, std::vector<T> data)
      : shape_(shape), data_(std::move(data)) {
    DNNFI_EXPECTS(data_.size() == shape_.size());
  }

  const Shape& shape() const noexcept { return shape_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  template <bool Checked = detail::kCheckedAccess>
  T& operator[](std::size_t i) {
    if constexpr (Checked) {
      detail::check_access(i < data_.size(), "i < tensor.size()",
                           std::source_location::current());
    }
    return data_[i];
  }
  template <bool Checked = detail::kCheckedAccess>
  const T& operator[](std::size_t i) const {
    if constexpr (Checked) {
      detail::check_access(i < data_.size(), "i < tensor.size()",
                           std::source_location::current());
    }
    return data_[i];
  }

  T& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[shape_.index(n, c, h, w)];
  }
  const T& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return data_[shape_.index(n, c, h, w)];
  }

  std::span<T> data() noexcept { return data_; }
  std::span<const T> data() const noexcept { return data_; }

  TensorView<T> view() noexcept { return {shape_, data_.data()}; }
  TensorView<const T> view() const noexcept { return {shape_, data_.data()}; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Resizes to `shape`, zero-filling; reuses storage when sizes match.
  void reshape(Shape shape) {
    shape_ = shape;
    data_.assign(shape.size(), T{});
  }

  /// Becomes a copy of `src`, reusing existing capacity when possible.
  void assign(TensorView<const T> src) {
    shape_ = src.shape();
    const auto s = src.data();
    data_.assign(s.begin(), s.end());
  }

 private:
  Shape shape_{1, 1, 1, 0};
  std::vector<T> data_;
};

/// Element-wise conversion between any two supported numeric types, via
/// double (every type converts exactly to double except DOUBLE->narrower,
/// which rounds exactly as the target type defines), into a same-shaped
/// view.
template <typename To, typename From>
void convert_into(ConstTensorView<From> src, TensorView<To> dst) {
  DNNFI_EXPECTS(src.shape() == dst.shape());
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = numeric::numeric_traits<To>::from_double(
        numeric::numeric_traits<From>::to_double(src[i]));
  }
}

// The FLOAT16 <-> FLOAT pairs take the vectorized batch path. float narrows
// exactly through double and Half applies the same rounding and NaN rule
// either way, so these are bit-identical to the generic loop above.
template <>
inline void convert_into<float, numeric::Half>(
    ConstTensorView<numeric::Half> src, TensorView<float> dst) {
  DNNFI_EXPECTS(src.shape() == dst.shape());
  numeric::half_to_float_n(src.data().data(), dst.data().data(), src.size());
}
template <>
inline void convert_into<numeric::Half, float>(ConstTensorView<float> src,
                                               TensorView<numeric::Half> dst) {
  DNNFI_EXPECTS(src.shape() == dst.shape());
  numeric::float_to_half_n(src.data().data(), dst.data().data(), src.size());
}

/// convert_into a new tensor.
template <typename To, typename From>
Tensor<To> convert(const Tensor<From>& src) {
  Tensor<To> dst(src.shape());
  convert_into<To, From>(src, dst);
  return dst;
}

/// L2 distance between two same-shaped tensors, computed in double.
/// This is the Euclidean distance used for the paper's Fig 7.
template <typename T>
double euclidean_distance(TensorView<const T> a, TensorView<const T> b) {
  DNNFI_EXPECTS(a.shape() == b.shape());
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = numeric::numeric_traits<T>::to_double(a[i]) -
                     numeric::numeric_traits<T>::to_double(b[i]);
    // Clamp non-finite deltas so one Inf doesn't hide layer trends.
    const double dd = std::isfinite(d) ? d : 1e30;
    acc += dd * dd;
  }
  return std::sqrt(acc);
}
template <typename T>
double euclidean_distance(const Tensor<T>& a, const Tensor<T>& b) {
  return euclidean_distance<T>(a.view(), b.view());
}

/// True when two same-shaped views hold byte-identical element data — the
/// masked-fault test of incremental replay (NaN- and -0.0-exact, unlike
/// operator== on the values). Raw memcmp: every datapath type is a
/// trivially copyable scalar with no padding.
template <typename T>
bool bitwise_equal(TensorView<const T> a, TensorView<const T> b) {
  static_assert(std::is_trivially_copyable_v<T>);
  DNNFI_EXPECTS(a.shape() == b.shape());
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(T)) == 0;
}
template <typename T>
bool bitwise_equal(const Tensor<T>& a, const Tensor<T>& b) {
  return bitwise_equal<T>(a.view(), b.view());
}

/// Count of elements whose bit patterns differ (paper's Table 5 metric).
template <typename T>
std::size_t bitwise_mismatch_count(TensorView<const T> a, TensorView<const T> b) {
  DNNFI_EXPECTS(a.shape() == b.shape());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (numeric::numeric_traits<T>::to_bits(a[i]) !=
        numeric::numeric_traits<T>::to_bits(b[i]))
      ++n;
  }
  return n;
}
template <typename T>
std::size_t bitwise_mismatch_count(const Tensor<T>& a, const Tensor<T>& b) {
  return bitwise_mismatch_count<T>(a.view(), b.view());
}

/// Min/max over all elements, in double.
template <typename T>
std::pair<double, double> value_range(TensorView<const T> t) {
  DNNFI_EXPECTS(!t.empty());
  double lo = numeric::numeric_traits<T>::to_double(t[0]);
  double hi = lo;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double v = numeric::numeric_traits<T>::to_double(t[i]);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}
template <typename T>
std::pair<double, double> value_range(const Tensor<T>& t) {
  return value_range<T>(t.view());
}

}  // namespace dnnfi::tensor
