#include "common/file.hpp"

#include <fstream>

#include "common/error.hpp"

namespace ps {

void write_file(const std::filesystem::path& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ConnectorError("cannot open " + path.string());
  write_all(out, data, path.string());
}

void write_all(std::ostream& out, BytesView data, const std::string& what) {
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  // A full device may accept the buffered bytes and fail only on flush.
  out.flush();
  if (!out) throw ConnectorError("short write to " + what);
}

}  // namespace ps
