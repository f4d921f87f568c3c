// Content-addressed, LRU-bounded synthesis result cache.
//
// Keys are 128-bit input fingerprints (runtime/fingerprint.hpp); values are
// shared, immutable CachedResult entries: a complete SynthesisResult plus
// its lossless JSON, written once on first use. find() refreshes recency;
// insert() evicts the least-recently-used entry once `capacity` is
// exceeded. All operations are thread-safe — the synthesis engine's job
// workers hit one shared cache.
//
// save_json()/load_json() spill the cache to disk and reload it in a later
// process, so repeated sweeps (bench reruns, CI) skip recomputation
// entirely. The spill stores results losslessly (%.17g doubles): a loaded
// hit is bit-identical to the original computation. Fingerprints are not
// stable across library versions, so a version mismatch simply misses.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/synthesis.hpp"
#include "runtime/fingerprint.hpp"

namespace fbmb {

/// One cache entry, shared by the cache and every caller that holds it.
/// The result never changes once stored; an evicted or overwritten entry
/// stays valid for as long as someone holds it.
class CachedResult {
 public:
  explicit CachedResult(SynthesisResult value) : result(std::move(value)) {}

  const SynthesisResult result;

  /// synthesis_result_to_json(result). Written by the first caller (a
  /// served response or a spill), never at insert, so entries nobody
  /// serves cost no JSON; every later call returns the same string.
  const std::string& json() const;

 private:
  mutable std::once_flag json_once_;
  mutable std::string json_;
};

class ResultCache {
 public:
  /// Keeps at most `capacity` results (>= 1).
  explicit ResultCache(std::size_t capacity = 128);

  /// Returns the entry and refreshes its recency, or null. Counts a hit,
  /// and a miss unless `count_miss` is false: a caller that will look
  /// again before it computes the result (the service's hit path) leaves
  /// the miss to that second look. Under the lock this copies only a
  /// pointer.
  std::shared_ptr<const CachedResult> find(const Fingerprint& key,
                                           bool count_miss = true);

  /// find(key)'s result as a copy, or nullopt.
  std::optional<SynthesisResult> lookup(const Fingerprint& key);

  /// Inserts (or overwrites) the entry and marks it most recently used,
  /// evicting the LRU entry when over capacity. Returns the stored entry.
  std::shared_ptr<const CachedResult> insert(const Fingerprint& key,
                                             SynthesisResult result);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

  void clear();

  /// Writes all entries (most recent first) as one JSON document, each
  /// result as its entry's stored bytes. Only the entry list is copied
  /// under the lock. Returns false on I/O failure.
  bool save_json(const std::string& path) const;

  /// Merges entries from a spill file into the cache (existing keys keep
  /// the in-memory value). Returns the number of entries loaded; malformed
  /// files load nothing and return 0.
  std::size_t load_json(const std::string& path);

 private:
  using Entry = std::pair<Fingerprint, std::shared_ptr<const CachedResult>>;

  void insert_locked(const Fingerprint& key,
                     std::shared_ptr<const CachedResult> value,
                     bool keep_existing);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> entries_;  ///< front = most recently used
  std::unordered_map<Fingerprint, std::list<Entry>::iterator,
                     FingerprintHasher>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace fbmb
