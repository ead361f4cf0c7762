#include "dnnfi/dnn/serialize.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dnnfi/common/atomic_file.h"

namespace dnnfi::dnn {

namespace {

constexpr char kMagic[6] = {'D', 'N', 'N', 'F', 'I', '\x01'};

void write_bytes(std::ostream& os, const void* p, std::size_t n) {
  os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}
template <typename T>
void write_pod(std::ostream& os, T v) {
  write_bytes(os, &v, sizeof(v));
}
void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  write_bytes(os, s.data(), s.size());
}

void read_bytes(std::istream& is, void* p, std::size_t n) {
  is.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("dnnfi model: truncated file");
}
template <typename T>
T read_pod(std::istream& is) {
  T v;
  read_bytes(is, &v, sizeof(v));
  return v;
}
// Bytes between the read position and the end of the file. Length fields
// are checked against it before anything is allocated, so a corrupt length
// fails fast instead of reserving gigabytes for a file that cannot fill them.
std::uint64_t bytes_left(std::istream& is) {
  const std::streamoff pos = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(pos);
  if (pos < 0 || end < pos || !is)
    throw std::runtime_error("dnnfi model: unseekable stream");
  return static_cast<std::uint64_t>(end - pos);
}
std::string read_string(std::istream& is) {
  const auto n = read_pod<std::uint32_t>(is);
  if (n > (1U << 20) || n > bytes_left(is))
    throw std::runtime_error("dnnfi model: bad string length");
  std::string s(n, '\0');
  if (n > 0) read_bytes(is, s.data(), n);
  return s;
}

template <typename F>
void write_floats(std::ostream& os, const std::vector<F>& v) {
  write_pod<std::uint64_t>(os, v.size());
  if (!v.empty()) write_bytes(os, v.data(), v.size() * sizeof(F));
}
std::vector<float> read_floats(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  if (n > (1ULL << 30) || n > bytes_left(is) / sizeof(float))
    throw std::runtime_error("dnnfi model: bad array length");
  std::vector<float> v(n);
  if (n > 0) read_bytes(is, v.data(), n * sizeof(float));
  return v;
}

}  // namespace

void save_model(const std::string& path, const NetworkSpec& spec,
                const WeightsBlob& blob) {
  // Serialize to memory, then publish via tmp+rename: a crash mid-save can
  // never leave a truncated model where a valid one is expected.
  std::ostringstream os(std::ios::binary);
  write_bytes(os, kMagic, sizeof(kMagic));
  write_string(os, spec.name);
  write_pod<std::uint64_t>(os, spec.input.n);
  write_pod<std::uint64_t>(os, spec.input.c);
  write_pod<std::uint64_t>(os, spec.input.h);
  write_pod<std::uint64_t>(os, spec.input.w);
  write_pod<std::uint64_t>(os, spec.num_classes);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(spec.layers.size()));
  for (const auto& l : spec.layers) {
    write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(l.kind));
    write_pod<std::int32_t>(os, l.block);
    write_string(os, l.name);
    for (const std::size_t v :
         {l.out_channels, l.kernel, l.stride, l.pad, l.out_features,
          l.pool_kernel, l.pool_stride, l.lrn_size, std::size_t{0},
          std::size_t{0}})
      write_pod<std::uint64_t>(os, v);
    for (const double v : {l.lrn_alpha, l.lrn_beta, l.lrn_k, 0.0})
      write_pod<double>(os, v);
  }
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(blob.layers.size()));
  for (const auto& lw : blob.layers) {
    write_floats(os, lw.weights);
    write_floats(os, lw.biases);
  }
  if (!os) throw std::runtime_error("dnnfi model: write failed: " + path);
  const auto written = write_file_atomic(path, os.str());
  if (!written)
    throw std::runtime_error("dnnfi model: " + written.error().message);
}

Model load_model(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("dnnfi model: cannot open: " + path);
  char magic[sizeof(kMagic)];
  read_bytes(is, magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("dnnfi model: bad magic: " + path);

  Model m;
  m.spec.name = read_string(is);
  m.spec.input.n = read_pod<std::uint64_t>(is);
  m.spec.input.c = read_pod<std::uint64_t>(is);
  m.spec.input.h = read_pod<std::uint64_t>(is);
  m.spec.input.w = read_pod<std::uint64_t>(is);
  m.spec.num_classes = read_pod<std::uint64_t>(is);
  const auto nlayers = read_pod<std::uint32_t>(is);
  if (nlayers > 4096) throw std::runtime_error("dnnfi model: bad layer count");
  m.spec.layers.resize(nlayers);
  for (auto& l : m.spec.layers) {
    l.kind = static_cast<LayerKind>(read_pod<std::uint8_t>(is));
    l.block = read_pod<std::int32_t>(is);
    l.name = read_string(is);
    std::uint64_t ints[10];
    for (auto& v : ints) v = read_pod<std::uint64_t>(is);
    l.out_channels = ints[0];
    l.kernel = ints[1];
    l.stride = ints[2];
    l.pad = ints[3];
    l.out_features = ints[4];
    l.pool_kernel = ints[5];
    l.pool_stride = ints[6];
    l.lrn_size = ints[7];
    double reals[4];
    for (auto& v : reals) v = read_pod<double>(is);
    l.lrn_alpha = reals[0];
    l.lrn_beta = reals[1];
    l.lrn_k = reals[2];
  }
  const auto nblob = read_pod<std::uint32_t>(is);
  if (nblob > 4096) throw std::runtime_error("dnnfi model: bad blob count");
  m.blob.layers.resize(nblob);
  for (auto& lw : m.blob.layers) {
    lw.weights = read_floats(is);
    lw.biases = read_floats(is);
  }
  return m;
}

bool is_model_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  return is && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace dnnfi::dnn
