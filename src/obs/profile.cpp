#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/text.hpp"

namespace ps::obs {

namespace {

/// Mutable aggregation node; converted to the public ProfileNode at the end.
struct Builder {
  std::string name;
  std::uint64_t count = 0;
  double total_wall = 0.0;
  double self_wall = 0.0;
  double total_vtime = 0.0;
  double self_vtime = 0.0;
  std::map<std::string, Builder> children;
};

ProfileNode finish(const std::string& name, const Builder& b) {
  ProfileNode node;
  node.name = name;
  node.count = b.count;
  node.total_wall_s = b.total_wall;
  node.self_wall_s = b.self_wall;
  node.total_vtime_s = b.total_vtime;
  node.self_vtime_s = b.self_vtime;
  node.children.reserve(b.children.size());
  for (const auto& [child_name, child] : b.children) {
    node.children.push_back(finish(child_name, child));
  }
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& c) {
              if (a.total_vtime_s != c.total_vtime_s) {
                return a.total_vtime_s > c.total_vtime_s;
              }
              if (a.total_wall_s != c.total_wall_s) {
                return a.total_wall_s > c.total_wall_s;
              }
              return a.name < c.name;
            });
  return node;
}

void append_table(std::string& out, const ProfileNode& node, int depth) {
  char line[256];
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += node.name;
  if (label.size() > 44) label.resize(44);
  std::snprintf(line, sizeof(line), "%-44s %8llu %11s %11s %11s %11s\n",
                label.c_str(), static_cast<unsigned long long>(node.count),
                fmt_latency(node.total_vtime_s).c_str(),
                fmt_latency(node.self_vtime_s).c_str(),
                fmt_latency(node.total_wall_s).c_str(),
                fmt_latency(node.self_wall_s).c_str());
  out += line;
  for (const ProfileNode& child : node.children) {
    append_table(out, child, depth + 1);
  }
}

void collect_entries(const ProfileNode& node, const std::string& prefix,
                     std::vector<ProfileEntry>& out) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  out.push_back({path, node.count, node.total_wall_s, node.self_wall_s,
                 node.total_vtime_s, node.self_vtime_s});
  for (const ProfileNode& child : node.children) {
    collect_entries(child, path, out);
  }
}

/// Every node flattened with its full path, in tree (pre-)order.
std::vector<ProfileEntry> flatten(const std::vector<ProfileNode>& roots) {
  std::vector<ProfileEntry> entries;
  for (const ProfileNode& root : roots) collect_entries(root, "", entries);
  return entries;
}

}  // namespace

Profile Profile::from_spans(const std::vector<SpanRecord>& spans) {
  // Resolve each span's name path by walking recorded parents, then merge
  // paths into a trie of Builders.
  const SpanIndex index(spans);
  std::map<std::string, Builder> roots;
  std::vector<const SpanRecord*> chain;
  for (const SpanRecord& span : spans) {
    // Walk up to the deepest recorded ancestor (bounded: parent links form
    // a tree; guard against cycles from id reuse anyway).
    chain.clear();
    const SpanRecord* cursor = &span;
    while (cursor != nullptr && chain.size() < 512) {
      chain.push_back(cursor);
      const auto parent = index.by_id.find(
          SpanIndex::key(cursor->ctx, cursor->ctx.parent_span_id));
      cursor = parent == index.by_id.end() ? nullptr : &spans[parent->second];
    }

    std::map<std::string, Builder>* level = &roots;
    Builder* node = nullptr;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      node = &(*level)[(*it)->name];
      node->name = (*it)->name;
      level = &node->children;
    }

    // Self time subtracts the recorded children, clamped at zero for
    // overlapping/async children.
    const double wall = span.wall_end - span.wall_start;
    const double vtime = span.vtime_end - span.vtime_start;
    double child_wall = 0.0;
    double child_vtime = 0.0;
    const auto kids =
        index.children.find(SpanIndex::key(span.ctx, span.ctx.span_id));
    if (kids != index.children.end()) {
      for (const std::size_t child : kids->second) {
        child_wall += spans[child].wall_end - spans[child].wall_start;
        child_vtime += spans[child].vtime_end - spans[child].vtime_start;
      }
    }
    node->count += 1;
    node->total_wall += wall;
    node->total_vtime += vtime;
    node->self_wall += std::max(0.0, wall - child_wall);
    node->self_vtime += std::max(0.0, vtime - child_vtime);
  }

  Profile profile;
  profile.roots_.reserve(roots.size());
  for (const auto& [name, builder] : roots) {
    profile.roots_.push_back(finish(name, builder));
  }
  std::sort(profile.roots_.begin(), profile.roots_.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              if (a.total_vtime_s != b.total_vtime_s) {
                return a.total_vtime_s > b.total_vtime_s;
              }
              return a.name < b.name;
            });
  return profile;
}

Profile Profile::from_recorder(const TraceRecorder& recorder) {
  return from_spans(recorder.spans());
}

double Profile::total_vtime_s() const {
  double total = 0.0;
  for (const ProfileNode& root : roots_) total += root.total_vtime_s;
  return total;
}

double Profile::total_wall_s() const {
  double total = 0.0;
  for (const ProfileNode& root : roots_) total += root.total_wall_s;
  return total;
}

std::string Profile::folded(bool vtime) const {
  std::string out;
  char buf[32];
  for (const ProfileEntry& e : flatten(roots_)) {
    const double self = vtime ? e.self_vtime_s : e.self_wall_s;
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(std::llround(self * 1e9)));
    out += e.path + buf;
  }
  return out;
}

std::vector<ProfileEntry> Profile::top_nodes(std::size_t n) const {
  std::vector<ProfileEntry> entries = flatten(roots_);
  std::sort(entries.begin(), entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.self_vtime_s != b.self_vtime_s) {
                return a.self_vtime_s > b.self_vtime_s;
              }
              if (a.self_wall_s != b.self_wall_s) {
                return a.self_wall_s > b.self_wall_s;
              }
              return a.path < b.path;
            });
  if (entries.size() > n) entries.resize(n);
  return entries;
}

std::string Profile::table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %8s %11s %11s %11s %11s\n",
                "span (call tree)", "count", "vtime", "vt-self", "wall",
                "w-self");
  out += line;
  for (const ProfileNode& root : roots_) {
    append_table(out, root, 0);
  }
  return out;
}

}  // namespace ps::obs
