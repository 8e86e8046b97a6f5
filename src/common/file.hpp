// Checked file writes for the disk-backed substrates (file, Globus, IPFS).
#pragma once

#include <filesystem>

#include "common/bytes.hpp"

namespace ps {

/// Writes `data` to `path`, replacing any existing file. Throws
/// ConnectorError when the file cannot be opened or when not every byte
/// reaches it (a full device), so a caller never stores a truncated object.
void write_file(const std::filesystem::path& path, BytesView data);

}  // namespace ps
