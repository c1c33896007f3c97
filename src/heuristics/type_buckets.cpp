#include "heuristics/type_buckets.h"

#include <algorithm>

namespace hcs::heuristics {

void TypeBuckets::insert(std::size_t type, const Entry& entry) {
  std::vector<Entry>& bucket = buckets_[type];
  if (bucket.empty() || less(bucket.back(), entry)) {
    bucket.push_back(entry);  // common case: appended in key order
    return;
  }
  const auto it = std::upper_bound(bucket.begin(), bucket.end(), entry, less);
  const auto pos = static_cast<std::uint32_t>(it - bucket.begin());
  bucket.insert(it, entry);
  if (pos < head_[type]) head_[type] = pos;
}

bool TypeBuckets::erase(std::size_t type, double key, std::uint64_t seq) {
  std::vector<Entry>& bucket = buckets_[type];
  std::uint32_t& head = head_[type];
  // Winners are bucket heads, so the entry is almost always the first
  // live one — check it before a binary search (seq stamps are unique, so
  // a matching head IS the entry).
  auto it = bucket.begin() + head;
  if (head >= bucket.size() || it->seq != seq) {
    it = std::lower_bound(bucket.begin(), bucket.end(),
                          Entry{key, seq, sim::kInvalidTask, 0}, less);
  }
  if (it == bucket.end() || it->seq != seq || it->mark == kDead) return false;
  it->mark = kDead;
  ++dead_[type];
  while (head < bucket.size() && bucket[head].mark == kDead) ++head;
  if (dead_[type] >= 16 &&
      dead_[type] * 2 > static_cast<std::uint32_t>(bucket.size())) {
    std::erase_if(bucket, [](const Entry& e) { return e.mark == kDead; });
    dead_[type] = 0;
    head = 0;
  }
  return true;
}

void TypeBuckets::file(sim::TaskId task, const Filed& filed) {
  const auto slot = static_cast<std::size_t>(task);
  if (filed_.size() <= slot) filed_.resize(slot + 1);
  filed_[slot] = filed;
}

void TypeBuckets::resetBuckets(std::size_t numTypes) {
  buckets_.resize(numTypes);
  for (std::vector<Entry>& bucket : buckets_) bucket.clear();
  head_.assign(numTypes, 0);
  dead_.assign(numTypes, 0);
}

void TypeBuckets::sortBuckets() {
  for (std::vector<Entry>& bucket : buckets_) {
    if (!std::is_sorted(bucket.begin(), bucket.end(), less)) {
      std::sort(bucket.begin(), bucket.end(), less);
    }
  }
}

}  // namespace hcs::heuristics
