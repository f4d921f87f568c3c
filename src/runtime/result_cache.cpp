#include "runtime/result_cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "runtime/result_io.hpp"

namespace fbmb {

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<SynthesisResult> ResultCache::lookup(const Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->second;
}

void ResultCache::insert(const Fingerprint& key, SynthesisResult result) {
  std::lock_guard<std::mutex> lock(mutex_);
  insert_locked(key, std::move(result), /*keep_existing=*/false);
}

void ResultCache::insert_locked(const Fingerprint& key,
                                SynthesisResult result, bool keep_existing) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    entries_.splice(entries_.begin(), entries_, it->second);
    if (!keep_existing) it->second->second = std::move(result);
    return;
  }
  entries_.emplace_front(key, std::move(result));
  index_[key] = entries_.begin();
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++evictions_;
  }
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  index_.clear();
}

bool ResultCache::save_json(const std::string& path) const {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"format\": \"msynth-result-cache\", \"version\": 1, "
          "\"entries\": [";
    bool first = true;
    for (const Entry& entry : entries_) {
      os << (first ? "" : ",") << "\n{\"fingerprint\": \""
         << entry.first.to_hex() << "\", \"result\": "
         << synthesis_result_to_json(entry.second) << "}";
      first = false;
    }
    os << "\n]}\n";
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << os.str();
  return static_cast<bool>(out);
}

std::size_t ResultCache::load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::optional<jsonio::Value> root = jsonio::parse(buffer.str());
  if (!root || root->kind != jsonio::Value::Kind::kObject) return 0;
  const jsonio::Value* format = root->find("format");
  if (!format || format->kind != jsonio::Value::Kind::kString ||
      format->str != "msynth-result-cache") {
    return 0;
  }
  const jsonio::Value* entries = root->find("entries");
  if (!entries || entries->kind != jsonio::Value::Kind::kArray) return 0;

  std::size_t loaded = 0;
  // Iterate in reverse: the spill is most-recent-first, and inserting
  // refreshes recency, so reverse insertion reproduces the spilled order.
  for (auto it = entries->array.rbegin(); it != entries->array.rend(); ++it) {
    const jsonio::Value& entry = *it;
    if (entry.kind != jsonio::Value::Kind::kObject) continue;
    const jsonio::Value* fp_hex = entry.find("fingerprint");
    const jsonio::Value* result = entry.find("result");
    if (!fp_hex || fp_hex->kind != jsonio::Value::Kind::kString || !result) {
      continue;
    }
    Fingerprint key;
    if (!Fingerprint::from_hex(fp_hex->str, key)) continue;
    std::optional<SynthesisResult> parsed =
        synthesis_result_from_value(*result);
    if (!parsed) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    insert_locked(key, std::move(*parsed), /*keep_existing=*/true);
    ++loaded;
  }
  return loaded;
}

}  // namespace fbmb
