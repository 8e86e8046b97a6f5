// Checked file writes for the disk-backed substrates (file, Globus, IPFS,
// the endpoint's disk spill and the kv server's AOF).
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "common/bytes.hpp"

namespace ps {

/// Writes `data` to `path`, replacing any existing file. Throws
/// ConnectorError when the file cannot be opened or when not every byte
/// reaches it (a full device), so a caller never stores a truncated object.
void write_file(const std::filesystem::path& path, BytesView data);

/// Writes `data` to `out` and flushes it. Throws ConnectorError ("short
/// write to <what>") when not every byte reaches the device behind `out`.
void write_all(std::ostream& out, BytesView data, const std::string& what);

}  // namespace ps
