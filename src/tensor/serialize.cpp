#include "tensor/serialize.hpp"

#include <cstdint>
#include <fstream>

namespace eco::tensor {

namespace {
constexpr char kMagic[4] = {'E', 'C', 'O', 'W'};
constexpr std::uint32_t kVersion = 1;

void write_u64(std::ofstream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

bool read_u64(std::ifstream& in, std::uint64_t& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return static_cast<bool>(in);
}
}  // namespace

bool save_params(const std::vector<Param*>& params, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  write_u64(out, params.size());
  for (const Param* p : params) {
    write_u64(out, p->name.size());
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u64(out, p->value.dim());
    for (std::size_t d = 0; d < p->value.dim(); ++d) {
      write_u64(out, p->value.size(d));
    }
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

bool load_params(const std::vector<Param*>& params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return false;
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kVersion) return false;
  std::uint64_t count = 0;
  if (!read_u64(in, count) || count != params.size()) return false;

  for (Param* p : params) {
    std::uint64_t name_len = 0;
    if (!read_u64(in, name_len) || name_len > 4096) return false;
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    std::uint64_t ndim = 0;
    if (!read_u64(in, ndim) || ndim > 8) return false;
    Shape shape(ndim);
    for (auto& d : shape) {
      std::uint64_t v = 0;
      if (!read_u64(in, v)) return false;
      d = static_cast<std::size_t>(v);
    }
    if (shape != p->value.shape()) return false;
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
    if (!in) return false;
  }
  flush_negligible(params);
  return true;
}

}  // namespace eco::tensor
