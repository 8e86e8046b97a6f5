#include "ipfs/ipfs.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/hash.hpp"
#include "proc/process.hpp"
#include "serde/serde.hpp"
#include "sim/vtime.hpp"

namespace ps::ipfs {

namespace fs = std::filesystem;

std::shared_ptr<IpfsNode> IpfsNode::start(proc::World& world,
                                          const std::string& host,
                                          const std::string& name,
                                          fs::path block_dir,
                                          IpfsOptions options) {
  auto node = std::make_shared<IpfsNode>(world, host, std::move(block_dir),
                                         options);
  world.services().bind<IpfsNode>("ipfs://" + host + "/" + name, node);
  return node;
}

IpfsNode::IpfsNode(proc::World& world, std::string host, fs::path block_dir,
                   IpfsOptions options)
    : world_(world),
      host_(std::move(host)),
      block_dir_(std::move(block_dir)),
      options_(options) {
  world_.fabric().host(host_);  // validate
  fs::create_directories(block_dir_);
}

void IpfsNode::connect(const std::shared_ptr<IpfsNode>& peer) {
  if (!peer || peer.get() == this) return;
  {
    std::lock_guard lock(mu_);
    peers_.push_back(peer);
  }
  std::lock_guard lock(peer->mu_);
  peer->peers_.push_back(weak_from_this());
}

bool IpfsNode::has_block(const std::string& hash) const {
  std::lock_guard lock(mu_);
  return blocks_.contains(hash);
}

void IpfsNode::write_block(const std::string& hash, BytesView data) {
  {
    std::lock_guard lock(mu_);
    if (blocks_.contains(hash)) return;  // content-addressed: dedup
  }
  write_file(block_dir_ / hash, data);
  sim::vadvance(world_.fabric().disk_write_time(host_, data.size()));
  std::lock_guard lock(mu_);
  blocks_.insert(hash);
}

std::optional<Bytes> IpfsNode::read_block(const std::string& hash) const {
  {
    std::lock_guard lock(mu_);
    if (!blocks_.contains(hash)) return std::nullopt;
  }
  std::ifstream in(block_dir_ / hash, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  sim::vadvance(world_.fabric().disk_read_time(host_, data.size()));
  return data;
}

Cid IpfsNode::add(BytesView data) {
  // Content hashing cost for the full payload.
  sim::vadvance(static_cast<double>(data.size()) / options_.hash_Bps);

  Manifest manifest;
  manifest.total_bytes = data.size();
  for (std::size_t offset = 0; offset < data.size();
       offset += options_.block_size) {
    const BytesView chunk = data.substr(
        offset, std::min(options_.block_size, data.size() - offset));
    const std::string hash = Sha256::hex_digest(chunk);
    write_block(hash, chunk);
    manifest.block_hashes.push_back(hash);
  }
  // Empty content still gets a manifest (and thus a CID).
  const Bytes manifest_bytes = serde::to_bytes(manifest);
  const std::string root = Sha256::hex_digest(manifest_bytes);
  write_block(root, manifest_bytes);
  return Cid{root};
}

std::optional<IpfsNode::Manifest> IpfsNode::load_manifest(const Cid& cid) {
  std::optional<Bytes> manifest_bytes = read_block(cid.hash);
  if (!manifest_bytes) manifest_bytes = fetch_block(cid.hash);
  if (!manifest_bytes) return std::nullopt;
  return serde::from_bytes<Manifest>(*manifest_bytes);
}

std::optional<Bytes> IpfsNode::fetch_block(const std::string& hash) {
  std::vector<std::shared_ptr<IpfsNode>> peers;
  {
    std::lock_guard lock(mu_);
    for (const auto& weak : peers_) {
      if (auto p = weak.lock()) peers.push_back(std::move(p));
    }
  }
  for (const auto& peer : peers) {
    if (!peer->has_block(hash)) continue;
    const std::optional<Bytes> block = peer->read_block(hash);
    if (!block) continue;
    // Bitswap is request/response per block: a want-list round trip plus
    // the block transfer at Bitswap efficiency. The underlying libp2p
    // connection stays warm, so TCP slow start is paid once per peer.
    bool warm;
    {
      std::lock_guard lock(mu_);
      warm = !warm_peers_.insert(peer->host_).second;
    }
    net::Route route = world_.fabric().route(peer->host_, host_);
    sim::vadvance(options_.per_block_overhead_s + route.rtt());
    double wire = 0.0;
    for (net::Hop& hop : route.hops) {
      net::LinkProfile p = hop.profile;
      p.bandwidth_Bps =
          std::max(1.0, p.bandwidth_Bps * options_.bandwidth_efficiency);
      if (warm) p.ramp_rtt_factor = 0.0;
      wire += p.transfer_time(block->size());
    }
    sim::vadvance(wire);
    write_block(hash, *block);  // cache locally, content-addressed
    return block;
  }
  return std::nullopt;
}

std::optional<Bytes> IpfsNode::get(const Cid& cid) {
  const auto manifest = load_manifest(cid);
  if (!manifest) return std::nullopt;
  Bytes out;
  out.reserve(manifest->total_bytes);
  for (const std::string& hash : manifest->block_hashes) {
    std::optional<Bytes> block = read_block(hash);
    if (!block) block = fetch_block(hash);
    if (!block) return std::nullopt;  // incomplete content in the swarm
    out += *block;
  }
  return out;
}

bool IpfsNode::has_local(const Cid& cid) const {
  Bytes manifest_bytes;
  {
    std::lock_guard lock(mu_);
    if (!blocks_.contains(cid.hash)) return false;
  }
  std::ifstream in(block_dir_ / cid.hash, std::ios::binary);
  if (!in) return false;
  manifest_bytes.assign((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto manifest = serde::from_bytes<Manifest>(manifest_bytes);
  std::lock_guard lock(mu_);
  for (const std::string& hash : manifest.block_hashes) {
    if (!blocks_.contains(hash)) return false;
  }
  return true;
}

void IpfsNode::remove_local(const Cid& cid) {
  const auto manifest = [&]() -> std::optional<Manifest> {
    std::ifstream in(block_dir_ / cid.hash, std::ios::binary);
    if (!in) return std::nullopt;
    const Bytes bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return serde::from_bytes<Manifest>(bytes);
  }();
  std::lock_guard lock(mu_);
  if (manifest) {
    for (const std::string& hash : manifest->block_hashes) {
      blocks_.erase(hash);
      std::error_code ec;
      fs::remove(block_dir_ / hash, ec);
    }
  }
  blocks_.erase(cid.hash);
  std::error_code ec;
  fs::remove(block_dir_ / cid.hash, ec);
}

std::size_t IpfsNode::block_count() const {
  std::lock_guard lock(mu_);
  return blocks_.size();
}

}  // namespace ps::ipfs
