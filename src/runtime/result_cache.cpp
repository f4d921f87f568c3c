#include "runtime/result_cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "runtime/result_io.hpp"

namespace fbmb {

const std::string& CachedResult::json() const {
  std::call_once(json_once_, [this] {
    json_ = synthesis_result_to_json(result);
    // The writer grows its string by doubling; keep only the bytes, so an
    // entry holds at most one result's JSON.
    json_.shrink_to_fit();
  });
  return json_;
}

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const CachedResult> ResultCache::find(const Fingerprint& key,
                                                      bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    if (count_miss) ++misses_;
    return nullptr;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->second;
}

std::optional<SynthesisResult> ResultCache::lookup(const Fingerprint& key) {
  const std::shared_ptr<const CachedResult> entry = find(key);
  if (!entry) return std::nullopt;
  return entry->result;
}

std::shared_ptr<const CachedResult> ResultCache::insert(
    const Fingerprint& key, SynthesisResult result) {
  std::shared_ptr<const CachedResult> entry =
      std::make_shared<CachedResult>(std::move(result));
  std::lock_guard<std::mutex> lock(mutex_);
  insert_locked(key, entry, /*keep_existing=*/false);
  return entry;
}

void ResultCache::insert_locked(const Fingerprint& key,
                                std::shared_ptr<const CachedResult> value,
                                bool keep_existing) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    entries_.splice(entries_.begin(), entries_, it->second);
    if (!keep_existing) it->second->second = std::move(value);
    return;
  }
  entries_.emplace_front(key, std::move(value));
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
  // Copy the entry pointers under the lock and write outside it, so a
  // spill never blocks hits; each result is its entry's stored bytes.
  std::vector<Entry> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"format\": \"msynth-result-cache\", \"version\": 1, "
         "\"entries\": [";
  bool first = true;
  for (const Entry& entry : snapshot) {
    out << (first ? "" : ",") << "\n{\"fingerprint\": \"";
    out << entry.first.to_hex() << "\", \"result\": ";
    out << entry.second->json() << '}';
    first = false;
  }
  out << "\n]}\n";
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
    std::shared_ptr<const CachedResult> value =
        std::make_shared<CachedResult>(std::move(*parsed));
    std::lock_guard<std::mutex> lock(mutex_);
    insert_locked(key, std::move(value), /*keep_existing=*/true);
    ++loaded;
  }
  return loaded;
}

}  // namespace fbmb
