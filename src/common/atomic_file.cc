#include "common/atomic_file.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <system_error>

namespace traclus::common {
namespace {

// A temp name no other writer uses: the process id separates concurrent
// processes, the counter separates writers inside one process.
std::string UniqueTempPath(const std::string& path) {
  static std::atomic<uint64_t> next{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(next.fetch_add(1));
}

}  // namespace

Status WriteFileAtomically(const std::string& path, const std::string& kind,
                           const std::function<void(std::ofstream&)>& write) {
  const std::string tmp = UniqueTempPath(path);
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  write(out);
  out.close();
  std::error_code remove_ec;  // Cleanup errors never mask the cause.
  if (!out.good()) {
    std::filesystem::remove(tmp, remove_ec);
    return Status::IOError("failed writing " + kind + " " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, remove_ec);
    return Status::IOError("cannot move " + tmp + " into place: " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace traclus::common
