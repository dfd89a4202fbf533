#include "serving/cache.h"

#include <utility>

namespace qb::serving {

std::uint64_t
hashSource(const std::string &source)
{
    // FNV-1a, 64-bit: cheap, stable across platforms, and good enough
    // that the byte-exact source comparison behind it only ever
    // arbitrates genuine collisions.
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : source) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity)
{
}

std::string
ResultCache::keyOf(std::uint64_t hash, const std::string &options_key)
{
    return std::to_string(hash) + '|' + options_key;
}

void
ResultCache::touchLocked(Entry &entry)
{
    lru_.splice(lru_.begin(), lru_, entry.lruPos);
}

std::shared_ptr<const core::ProgramResult>
ResultCache::lookup(std::uint64_t hash, const std::string &source,
                    const std::string &options_key, bool count_miss)
{
    if (capacity_ == 0)
        return nullptr;
    const std::string key = keyOf(hash, options_key);
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || *it->second.source != source) {
        if (count_miss)
            ++misses_;
        return nullptr;
    }
    ++hits_;
    touchLocked(it->second);
    return it->second.result;
}

void
ResultCache::insert(std::uint64_t hash,
                    std::shared_ptr<const std::string> source,
                    const std::string &options_key,
                    core::ProgramResult result)
{
    if (capacity_ == 0)
        return;
    const std::string key = keyOf(hash, options_key);
    const std::lock_guard<std::mutex> guard(mutex_);
    auto stored =
        std::make_shared<const core::ProgramResult>(std::move(result));
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second.source = std::move(source);
        it->second.result = std::move(stored);
        touchLocked(it->second);
        return;
    }
    lru_.push_front(key);
    entries_.emplace(
        key, Entry{std::move(source), std::move(stored), lru_.begin()});
    while (entries_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
}

CacheCounters
ResultCache::counters() const
{
    const std::lock_guard<std::mutex> guard(mutex_);
    CacheCounters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.entries = entries_.size();
    return c;
}

} // namespace qb::serving
