#include "dnnfi/data/image_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dnnfi::data {

void write_ppm(const std::string& path, const tensor::Tensor<float>& image) {
  const auto& s = image.shape();
  if (s.c != 3) throw std::runtime_error("write_ppm: need 3 channels");
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("write_ppm: cannot open " + path);
  os << "P6\n" << s.w << ' ' << s.h << "\n255\n";
  std::vector<unsigned char> row(s.w * 3);
  for (std::size_t y = 0; y < s.h; ++y) {
    for (std::size_t x = 0; x < s.w; ++x) {
      for (std::size_t c = 0; c < 3; ++c) {
        const double v = (static_cast<double>(image.at(0, c, y, x)) + 1.0) * 127.5;
        row[x * 3 + c] =
            static_cast<unsigned char>(std::clamp(v, 0.0, 255.0));
      }
    }
    os.write(reinterpret_cast<const char*>(row.data()),
             static_cast<std::streamsize>(row.size()));
  }
  if (!os) throw std::runtime_error("write_ppm: write failed " + path);
}

tensor::Tensor<float> read_ppm(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("read_ppm: cannot open " + path);
  std::string magic;
  is >> magic;
  if (magic != "P6") throw std::runtime_error("read_ppm: not a P6 PPM");
  std::size_t w = 0, h = 0, maxv = 0;
  is >> w >> h >> maxv;
  if (!is || w == 0 || h == 0 || maxv == 0 || maxv > 255)
    throw std::runtime_error("read_ppm: bad header");
  is.get();  // single whitespace after header
  // The header is untrusted: size the pixel buffer only after checking that
  // w*h*3 neither overflows nor exceeds the bytes left in the file.
  const std::streamoff body = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(body);
  if (!is || body < 0 || end < body)
    throw std::runtime_error("read_ppm: unreadable pixel data");
  const auto left = static_cast<std::uint64_t>(end - body);
  if (w > std::numeric_limits<std::size_t>::max() / 3 / h ||
      w * h * 3 > left)
    throw std::runtime_error("read_ppm: truncated pixel data");
  std::vector<unsigned char> raw(w * h * 3);
  is.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (!is) throw std::runtime_error("read_ppm: truncated pixel data");
  tensor::Tensor<float> img(tensor::chw(3, h, w));
  for (std::size_t y = 0; y < h; ++y)
    for (std::size_t x = 0; x < w; ++x)
      for (std::size_t c = 0; c < 3; ++c)
        img.at(0, c, y, x) = static_cast<float>(
            static_cast<double>(raw[(y * w + x) * 3 + c]) / 127.5 - 1.0);
  return img;
}

}  // namespace dnnfi::data
