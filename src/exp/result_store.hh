/**
 * @file
 * Content-addressed result store: simulate each scenario once, ever.
 *
 * A completed scenario row is cached on disk under
 *
 *     key = sha256( canonical-minimal scenario JSON
 *                   + '\n' + version/behavior stamp )
 *
 * The canonical scenario form (exp/serialize.hh) already encodes
 * every axis that can change a result — topology, router/link
 * config, routing mode, traffic spec, load, seeds, fault plan,
 * simulation windows — and the PR-4 guarantee parse(serialize(s)) ==
 * s makes the key a pure function of the scenario's *meaning*, not
 * of who built it (a bench binary, a plan file, the fuzzer). The
 * stamp folds in the build's git-describe, so a store survives
 * recompiles of the same commit but never serves rows across code
 * changes; `snoc cache prune` evicts rows whose stamp went stale.
 *
 * Execution knobs (threads, batch lanes, shards) are deliberately
 * NOT part of the key: the engine's determinism contract makes
 * results bitwise identical across execution modes, so a row cached
 * by a sharded run is exactly the row a serial run would produce —
 * and the store's own contract (enforced by test) is that a cache
 * hit is bitwise identical to a fresh simulation.
 *
 * Layout: append-only packs, <root>/packs/<tag>/<pid>-<seq>.jsonl,
 * where <tag> is the first 16 hex digits of sha256(stamp). Every key
 * folds in the stamp, so a line of another stamp can never be a hit;
 * keeping each stamp's packs in their own directory means opening a
 * store never reads them, however many builds have used it. An
 * entry is one compact JSON line ({"key", "stamp", "scenario",
 * "sim"}) ending in '\n'. Each handle creates its own pack on its
 * first put (O_EXCL, so a reused pid moves on to the next `seq` of
 * the process-wide counter) and is its only writer; a campaign that
 * computes N points therefore creates one file, not N. A pack is
 * never rewritten in place: a write that fails closes it, and the
 * next put starts a fresh pack, so no line ever follows a torn one.
 * Puts are not fsync'd: the store is a cache, and a crashed writer
 * can only tear the last line of its pack.
 *
 * Index: a handle maps each key to the (pack, offset, length) of its
 * line. The constructor builds it by reading its stamp's packs in
 * fixed-size chunks; a line is indexed only if it ends in '\n' and
 * starts with {"key":"<64 chars>", and when a key appears twice the
 * later line wins. lookup() reads that one line with pread() and does
 * the full parse: a torn, damaged or stale-stamped line is a cache
 * miss, never an error.
 *
 * Visibility: a handle sees the entries that were on disk when it
 * was opened, plus its own puts. Two campaigns may share a store at
 * once and both stay correct, but they do not see each other's
 * results mid-run.
 *
 * Maintenance: usage() counts every line of another stamp's packs
 * as stale without parsing it. prune() compacts the current-stamp
 * entries, one line per key, into one new pack, deletes the old
 * packs and deletes other stamps' directories whole; clear() deletes
 * every pack. Both also delete an `objects/` tree left by the
 * one-file-per-entry layout of older builds, which is never read.
 * Neither locks against other processes: a campaign writing the
 * store at the same time can lose entries to them, which a cache may
 * do.
 */

#ifndef SNOC_EXP_RESULT_STORE_HH
#define SNOC_EXP_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/experiment_plan.hh"

namespace snoc {

/**
 * The version/behavior stamp folded into every store key and written
 * into journal headers: the build's git-describe plus a store schema
 * tag. Two builds with equal stamps must produce bitwise-identical
 * results for equal scenarios.
 */
std::string resultStoreStamp();

/** The store key for a scenario (64 hex chars; see file comment). */
std::string resultKey(const Scenario &scenario);

/** On-disk content-addressed cache of completed scenario rows. */
class ResultStore
{
  public:
    /**
     * Open (creating the root as needed) a store rooted at `root`
     * and index its stamp's packs already on disk. `stamp` defaults
     * to resultStoreStamp(); tests override it to model entries
     * written by another code version.
     * @throws FatalError when the root cannot be created
     */
    explicit ResultStore(std::string root, std::string stamp = {});
    ~ResultStore();
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * The store root from the environment (SNOC_RESULT_STORE), or ""
     * when caching is disabled.
     */
    static std::string resolveRoot();

    /**
     * The cached result under `key`, or nullopt. Missing, torn,
     * corrupt and stale-stamped entries all count as misses.
     */
    std::optional<SimResult> lookup(const std::string &key);

    /**
     * Cache a completed row: append one line to this handle's pack.
     * A later put of the same key supersedes the earlier line.
     * Thread-safe, also against other handles and processes on the
     * same root.
     * @throws FatalError when the pack cannot be created or written
     */
    void put(const std::string &key, const Scenario &scenario,
             const SimResult &sim);

    /** Hit/miss/put counts for this store handle (manifest stats). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t puts = 0;
    };
    Stats stats() const;

    /** Whole-store disk accounting (`snoc cache stats`). */
    struct Usage
    {
        std::uint64_t entries = 0; //!< distinct current-stamp keys
        std::uint64_t stale = 0;   //!< lines of another stamp
        std::uint64_t corrupt = 0; //!< torn or unparseable lines
        std::uint64_t bytes = 0;   //!< total pack bytes on disk
    };
    Usage usage() const;

    /**
     * Delete every pack (`snoc cache clear`); returns the entries,
     * stale and corrupt lines removed, as usage() counted them.
     */
    std::uint64_t clear();

    /**
     * Rewrite the current-stamp entries, one line per key, into one
     * new pack, delete the old packs and every other stamp's packs
     * (`snoc cache prune`); returns the number of stale and corrupt
     * lines dropped.
     */
    std::uint64_t prune();

    const std::string &root() const { return root_; }
    const std::string &stamp() const { return stamp_; }

  private:
    /** Where a key's line sits: packs_[pack], bytes [offset, +length). */
    struct Location
    {
        std::uint64_t offset = 0;
        std::uint64_t length = 0;
        std::size_t pack = 0;
    };

    using Index = std::unordered_map<std::string, Location>;

    /** Every pack's lines, classified (see usage()). */
    struct Survey;

    std::string root_;
    std::string stamp_;
    std::string packDir_; //!< this stamp's packs: <root>/packs/<tag>
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> puts_{0};

    /** Guards the index, the pack list and the pack being written. */
    std::mutex mutex_;
    std::vector<std::string> packs_; //!< paths, by Location::pack
    Index index_;
    int packFd_ = -1; //!< this handle's pack, opened on first put
    std::size_t packId_ = 0;     //!< its Location::pack
    std::uint64_t packSize_ = 0; //!< its length: the next line's offset

    void indexPack(const std::string &path);
    /** Append one entry line to this handle's pack (under mutex_). */
    void appendLine(const std::string &key, const std::string &line);
    /** Close this handle's pack and drop its index (under mutex_). */
    void forget();
    /** Delete what a survey found, and any old `objects/` tree. */
    void removeSurveyed(const Survey &s) const;
    Survey survey() const;
};

} // namespace snoc

#endif // SNOC_EXP_RESULT_STORE_HH
