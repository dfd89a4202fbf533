/**
 * @file
 * Result cache of the qborrow serving tier.
 *
 * The daemon of server/server.h shares one scheduler pool across
 * requests; without this layer every request would still re-parse,
 * re-elaborate and re-solve its program from scratch.  For the
 * serving workloads the daemon exists for - benchmark farms and CI
 * fleets hammering one process with the SAME programs over and over -
 * ResultCache memoizes finished VERDICTS: (source hash, options
 * fingerprint) -> the complete core::ProgramResult.  A hit answers
 * without touching the scheduler at all, and because the stored
 * struct is re-serialized verbatim, the report is byte-identical to
 * the run that produced it.
 *
 * The cache is LRU with a fixed capacity (capacity 0 disables it) and
 * exposes hit/miss/eviction counters, surfaced by the server's
 * `stats` op.  Results are handed out as shared_ptrs, so eviction
 * under a concurrent reader is safe: the result dies with its last
 * user, never under one.
 */

#ifndef QB_SERVING_CACHE_H
#define QB_SERVING_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/engine.h"

namespace qb::serving {

/** FNV-1a 64-bit hash of a program source (the result cache key's
 *  source half). */
std::uint64_t hashSource(const std::string &source);

/** Hit/miss/eviction counters of one cache (monotonic). */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0; ///< live entries right now
};

/**
 * Bounded LRU cache of finished verification results, keyed by
 * (source hash, options fingerprint) with the exact source retained
 * as a collision guard.  Thread-safe.
 */
class ResultCache
{
  public:
    /** @p capacity 0 disables caching. */
    explicit ResultCache(std::size_t capacity);

    /** The stored result of (@p hash, @p options_key), or null.
     *  @p source must byte-match the stored program.  A hit is always
     *  counted; a miss only when @p count_miss is set, so a caller
     *  that looks up twice per request (a first try, then a re-check
     *  that decides) counts one outcome. */
    std::shared_ptr<const core::ProgramResult>
    lookup(std::uint64_t hash, const std::string &source,
           const std::string &options_key, bool count_miss = true);

    /** Memoize @p result (no-op at capacity 0).  @p source is shared,
     *  not copied. */
    void insert(std::uint64_t hash,
                std::shared_ptr<const std::string> source,
                const std::string &options_key,
                core::ProgramResult result);

    CacheCounters counters() const;

  private:
    struct Entry
    {
        std::shared_ptr<const std::string> source;
        std::shared_ptr<const core::ProgramResult> result;
        /** This entry's key in lru_, for O(1) touches. */
        std::list<std::string>::iterator lruPos;
    };

    static std::string keyOf(std::uint64_t hash,
                             const std::string &options_key);

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_; ///< guarded by mutex_
    std::list<std::string> lru_;           ///< guarded by mutex_
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

    /** Move @p entry to the front of the LRU order, in O(1). */
    void touchLocked(Entry &entry);
};

} // namespace qb::serving

#endif // QB_SERVING_CACHE_H
