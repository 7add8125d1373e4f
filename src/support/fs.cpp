#include "support/fs.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace lr::support {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return os.str();
}

bool write_file_atomic(const std::string& path, const std::string& contents) {
  return write_file_atomic(
      path, [&contents](std::ostream& out) { out << contents; });
}

bool write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    try {
      write(out);
    } catch (...) {
      out.close();
      std::remove(tmp.c_str());
      throw;
    }
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  return true;
}

std::string content_hash(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::optional<std::string> hash_file(const std::string& path) {
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;
  return content_hash(*bytes);
}

}  // namespace lr::support
