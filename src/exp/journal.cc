#include "exp/journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/hash.hh"
#include "common/log.hh"
#include "exp/result_store.hh"
#include "exp/serialize.hh"

namespace snoc {

namespace {

/**
 * Make a new file's directory entry durable: fsyncing the file alone
 * does not, so a power loss could drop the whole journal.
 */
void
syncParentDirectory(const std::string &path)
{
    std::filesystem::path dir = std::filesystem::path(path).parent_path();
    if (dir.empty())
        dir = ".";
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        fatal("cannot open journal directory '", dir.string(),
              "': ", std::strerror(errno));
    int rc = ::fsync(fd);
    int err = errno;
    ::close(fd);
    if (rc != 0)
        fatal("cannot fsync journal directory '", dir.string(),
              "': ", std::strerror(err));
}

} // namespace

std::string
planHash(const ExperimentPlan &plan)
{
    return sha256Hex(serializePlan(plan) + resultStoreStamp());
}

ResultJournal::ResultJournal(std::string path,
                             const std::string &planHash)
    : path_(std::move(path))
{
    // O_APPEND makes each write land at the current end of file even
    // if several handles point at the same journal; combined with
    // one-line-per-write this keeps entries intact (a crash can only
    // tear the *last* line, which replay() tolerates).
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        fatal("cannot open journal '", path_,
              "': ", std::strerror(errno));

    try {
        struct stat st{};
        if (::fstat(fd_, &st) != 0)
            fatal("cannot stat journal '", path_,
                  "': ", std::strerror(errno));
        if (st.st_size == 0) {
            JsonValue header = JsonValue::object();
            header.set("snocJournal", JsonValue::number(1));
            header.set("plan", JsonValue::string(planHash));
            header.set("stamp", JsonValue::string(resultStoreStamp()));
            writeLine(header.dump(-1));
            if (::fsync(fd_) != 0)
                fatal("cannot fsync journal '", path_,
                      "': ", std::strerror(errno));
            syncParentDirectory(path_);
        }
        syncer_ = std::thread([this] { syncLoop(); });
    } catch (...) {
        ::close(fd_);
        throw;
    }
}

ResultJournal::~ResultJournal()
{
    if (int err = stopSyncing())
        warn("cannot fsync journal '", path_,
             "': ", std::strerror(err));
    ::close(fd_);
}

void
ResultJournal::close()
{
    if (int err = stopSyncing())
        fatal("cannot fsync journal '", path_,
              "': ", std::strerror(err));
}

int
ResultJournal::stopSyncing()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closing_ = true;
    }
    wakeSyncer_.notify_one();
    if (syncer_.joinable())
        syncer_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(syncErrno_, 0);
}

void
ResultJournal::syncLoop()
{
    // Group commit: one fsync covers every line written since the
    // last one, and appends keep writing while it runs.
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wakeSyncer_.wait(lock, [this] { return unsynced_ || closing_; });
        if (!unsynced_)
            return; // closing, and every line is on disk
        unsynced_ = false;
        lock.unlock();
        int rc = ::fsync(fd_);
        int err = errno;
        lock.lock();
        if (rc != 0 && syncErrno_ == 0)
            syncErrno_ = err;
    }
}

void
ResultJournal::writeLine(const std::string &line)
{
    std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("cannot write journal '", path_,
                  "': ", std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
}

void
ResultJournal::append(std::size_t jobIndex, const JobResult &result)
{
    JsonValue entry = JsonValue::object();
    entry.set("job", JsonValue::number(
                         static_cast<std::uint64_t>(jobIndex)));
    entry.set("result", toJson(result));
    std::string line = entry.dump(-1);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closing_)
            fatal("journal '", path_, "' is closed");
        if (syncErrno_ != 0)
            fatal("cannot fsync journal '", path_,
                  "': ", std::strerror(syncErrno_));
        writeLine(line);
        unsynced_ = true;
    }
    wakeSyncer_.notify_one();
}

std::map<std::size_t, JobResult>
ResultJournal::replay(const std::string &path,
                      const std::string &expectPlanHash)
{
    std::map<std::size_t, JobResult> completed;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return completed;

    std::string line;
    bool sawHeader = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue doc;
        try {
            doc = JsonValue::parse(line, path);
        } catch (const FatalError &) {
            // A torn tail is the normal post-crash state; everything
            // already replayed stays valid. Anything after the tear
            // is unreachable (appends are sequential), so stop.
            break;
        }
        if (!sawHeader) {
            const JsonValue *magic = doc.find("snocJournal");
            const JsonValue *plan = doc.find("plan");
            if (!magic || !plan || !plan->isString())
                fatal("journal '", path,
                      "' has no valid header; delete it or rerun "
                      "without --resume");
            if (plan->asString("$.plan") != expectPlanHash)
                fatal("journal '", path,
                      "' was written for a different plan or code "
                      "version; delete it or rerun without --resume");
            sawHeader = true;
            continue;
        }
        const JsonValue *job = doc.find("job");
        const JsonValue *result = doc.find("result");
        if (!job || !result)
            break;
        try {
            std::size_t idx = static_cast<std::size_t>(
                job->asU64("$.job"));
            completed[idx] = jobResultFromJson(*result, "$.result");
        } catch (const FatalError &) {
            break;
        }
    }
    return completed;
}

void
ResultJournal::remove(const std::string &path)
{
    ::unlink(path.c_str());
}

} // namespace snoc
