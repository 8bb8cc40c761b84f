/**
 * @file
 * Write-ahead result journal: crash-safe record of completed jobs.
 *
 * While a campaign runs, every job that completes successfully is
 * appended to a JSONL journal. The line is written to the file before
 * append() returns, so a SIGKILL loses nothing that was appended: the
 * set of rows on file is always a prefix-closed subset of the work
 * actually done. The journal's own sync thread fsyncs the written
 * lines in groups, outside every lock, so workers never wait on the
 * disk; a power loss loses at most the last unsynced group, and
 * `--resume` simply re-runs those jobs. `snoc run --resume` replays
 * the journal, skips the jobs it already holds, and produces output
 * byte-identical to an uninterrupted run.
 *
 * Format (one JSON document per line, compact form):
 *
 *     {"snocJournal":1,"plan":"<sha256>","stamp":"<stamp>"}
 *     {"job":3,"result":{...JobResult...}}
 *     {"job":0,"result":{...}}
 *
 * The header binds the journal to a specific plan *content* and code
 * version: `plan` is sha256(canonical plan JSON + stamp), so resuming
 * after editing the plan file or rebuilding across commits fails
 * loudly instead of splicing stale rows into fresh ones. Entries may
 * arrive in any order (worker threads finish when they finish); only
 * jobs with status=ok are journaled, so failed jobs are re-attempted
 * on resume. A torn final line — the expected state after a crash
 * mid-append — is silently dropped during replay.
 */

#ifndef SNOC_EXP_JOURNAL_HH
#define SNOC_EXP_JOURNAL_HH

#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "exp/experiment_plan.hh"

namespace snoc {

/**
 * Identity of a plan's content + code version, as recorded in
 * journal headers: sha256(canonical plan JSON + resultStoreStamp()).
 */
std::string planHash(const ExperimentPlan &plan);

/**
 * Append-only JSONL journal of per-job completions. Lines are
 * written synchronously and fsync'd in groups by the journal's sync
 * thread; a failed fsync is reported by the next append() or by
 * close().
 */
class ResultJournal
{
  public:
    /**
     * Open `path` for appending. A fresh or truncated-empty file
     * gets the header line immediately, fsync'd together with its
     * directory entry before the constructor returns; an existing
     * journal is appended to as-is (the caller replays + validates
     * it first).
     * @throws FatalError when the file cannot be opened or written
     */
    ResultJournal(std::string path, const std::string &planHash);

    /**
     * Waits for the final fsync and joins the sync thread. A sync
     * failure that close() has not reported is printed as a warning.
     */
    ~ResultJournal();

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    /**
     * Record that plan job `jobIndex` completed with `result`. The
     * line is written to the file before this returns (a SIGKILL
     * cannot lose it); the sync thread fsyncs it shortly after,
     * together with every line written meanwhile. Thread-safe.
     * @throws FatalError when the write fails, when an earlier fsync
     *         failed, or after close()
     */
    void append(std::size_t jobIndex, const JobResult &result);

    /**
     * Fsync every appended line, stop the sync thread and report how
     * that went. Call it before telling anyone the journal can seed
     * a resume.
     * @throws FatalError when any fsync of this journal failed
     */
    void close();

    const std::string &path() const { return path_; }

    /**
     * Parse the journal at `path` into {job index -> result}.
     * Missing file -> empty map. A torn/corrupt line ends the replay
     * (everything before it is kept). Entries for the same job keep
     * the last occurrence.
     * @throws FatalError when the header's plan hash differs from
     *         `expectPlanHash` — the journal belongs to a different
     *         plan or code version and must not seed a resume
     */
    static std::map<std::size_t, JobResult>
    replay(const std::string &path, const std::string &expectPlanHash);

    /** Delete the journal file if present (clean-success cleanup). */
    static void remove(const std::string &path);

  private:
    std::string path_;
    int fd_ = -1;

    std::mutex mutex_; //!< orders writes; guards the fields below
    std::condition_variable wakeSyncer_;
    bool unsynced_ = false; //!< lines written since the last fsync began
    int syncErrno_ = 0;     //!< first fsync failure, not yet reported
    bool closing_ = false;  //!< close() or the destructor began

    std::thread syncer_; //!< runs syncLoop(); declared last

    void writeLine(const std::string &line);
    void syncLoop();
    /** Stop the sync thread after its last fsync; the unreported
     *  errno of a failed fsync, or 0. */
    int stopSyncing();
};

} // namespace snoc

#endif // SNOC_EXP_JOURNAL_HH
