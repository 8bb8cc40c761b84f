#include "exp/result_store.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>
#include <system_error>
#include <tuple>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "exp/serialize.hh"

namespace snoc {

namespace fs = std::filesystem;

namespace {

// Bumping this invalidates every existing store (and journal) when
// the entry schema itself changes, independently of code versions.
constexpr const char *kStoreSchema = "snoc-store-v1";

// Pack sequence numbers. One counter per process, not per handle:
// two handles on one root must never pick the same name.
std::atomic<std::uint64_t> nextPackSeq{0};

// Every entry line starts with the key: kKeyPrefix, the key's
// kKeyChars and a closing quote, kHeadBytes in all.
constexpr std::string_view kKeyPrefix = "{\"key\":\"";
constexpr std::size_t kKeyChars = 64;
constexpr std::size_t kHeadBytes = kKeyPrefix.size() + kKeyChars + 1;

// Packs are read in pieces of this size, never whole.
constexpr std::size_t kScanChunk = 64 * 1024;

/** The key a line starting with `head` names, or "" for none. */
std::string_view
lineKey(std::string_view head)
{
    if (head.size() != kHeadBytes || !head.starts_with(kKeyPrefix) ||
        head.back() != '"')
        return {};
    return head.substr(kKeyPrefix.size(), kKeyChars);
}

/** The *.jsonl packs in `dir`, in name order; none if it is missing. */
std::vector<std::string>
listPacks(const fs::path &dir)
{
    std::vector<std::string> packs;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->path().extension() == ".jsonl" &&
            it->is_regular_file(ec))
            packs.push_back(it->path().string());
    // Name order makes "the later line wins" the same for every
    // handle when two packs hold one key.
    std::sort(packs.begin(), packs.end());
    return packs;
}

/** Read exactly `length` bytes at `offset`; false on error or EOF. */
bool
preadAll(int fd, char *out, std::size_t length, std::uint64_t offset)
{
    for (std::size_t done = 0; done < length;) {
        ssize_t n = ::pread(fd, out + done, length - done,
                            static_cast<off_t>(offset + done));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Call onLine(offset, length, head, torn) for every line of the file
 * at `fd`, in order. `head` holds the line's first bytes (at most
 * kHeadBytes, without the '\n'). A last line with no '\n' (a torn
 * tail, or a read error) comes with `torn` set.
 */
template <typename OnLine>
void
scanLines(int fd, OnLine &&onLine)
{
    std::unique_ptr<char[]> buf(new char[kScanChunk]);
    std::string head;
    std::uint64_t pos = 0;
    std::uint64_t lineStart = 0;
    for (;;) {
        ssize_t n = ::pread(fd, buf.get(), kScanChunk,
                            static_cast<off_t>(pos));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        const char *p = buf.get();
        const char *end = p + n;
        while (p < end) {
            const char *nl = static_cast<const char *>(
                std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
            const char *stop = nl ? nl : end;
            head.append(p, std::min<std::size_t>(
                               kHeadBytes - head.size(),
                               static_cast<std::size_t>(stop - p)));
            if (!nl)
                break;
            std::uint64_t lineEnd =
                pos + static_cast<std::uint64_t>(nl - buf.get()) + 1;
            onLine(lineStart, lineEnd - lineStart, std::string_view(head),
                   false);
            lineStart = lineEnd;
            head.clear();
            p = nl + 1;
        }
        pos += static_cast<std::uint64_t>(n);
    }
    if (pos > lineStart)
        onLine(lineStart, pos - lineStart, std::string_view(head), true);
}

/** The `length` bytes at `offset` of the file `path`, if readable. */
std::optional<std::string>
readAt(const std::string &path, std::uint64_t offset,
       std::uint64_t length)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    std::string text(length, '\0');
    bool ok = preadAll(fd, text.data(), length, offset);
    ::close(fd);
    if (!ok)
        return std::nullopt;
    return text;
}

/** Write all of `text` at the end of `fd`; false on error (errno). */
bool
writeAll(int fd, const std::string &text)
{
    for (std::size_t off = 0; off < text.size();) {
        ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * The entry `line` as a result: nullopt unless it parses and names
 * `key` under `stamp`.
 */
std::optional<SimResult>
parseEntry(const std::string &line, const std::string &origin,
           const std::string &key, const std::string &stamp)
{
    try {
        JsonValue doc = JsonValue::parse(line, origin);
        const JsonValue *k = doc.find("key");
        const JsonValue *s = doc.find("stamp");
        const JsonValue *sim = doc.find("sim");
        if (!k || !s || !sim || k->asString("$.key") != key ||
            s->asString("$.stamp") != stamp)
            return std::nullopt;
        return simResultFromJson(*sim, "$.sim");
    } catch (const FatalError &) {
        // A torn or damaged entry (a crashed writer, disk damage) is
        // a cache miss, never a campaign failure.
        return std::nullopt;
    }
}

} // namespace

std::string
resultStoreStamp()
{
    return std::string(kStoreSchema) + ":" + gitDescribe();
}

std::string
resultKey(const Scenario &scenario)
{
    return sha256Hex(serializeScenario(scenario) + resultStoreStamp());
}

struct ResultStore::Survey
{
    std::vector<std::string> packs;   //!< this stamp's packs
    std::vector<std::string> foreign; //!< other stamps' pack directories
    Index current; //!< latest current-stamp line of each key
    std::uint64_t stale = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t bytes = 0;
};

ResultStore::ResultStore(std::string root, std::string stamp)
    : root_(std::move(root)),
      stamp_(stamp.empty() ? resultStoreStamp() : std::move(stamp))
{
    if (root_.empty())
        fatal("result store root must not be empty");
    packDir_ = (fs::path(root_) / "packs" /
                sha256Hex(stamp_).substr(0, 16))
                   .string();
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec)
        fatal("cannot create result store at '", root_,
              "': ", ec.message());
    for (const std::string &path : listPacks(packDir_))
        indexPack(path);
}

ResultStore::~ResultStore()
{
    if (packFd_ >= 0)
        ::close(packFd_);
}

std::string
ResultStore::resolveRoot()
{
    return envString(kEnvResultStore, "");
}

void
ResultStore::indexPack(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return; // deleted since it was listed
    std::size_t id = packs_.size();
    packs_.push_back(path);
    scanLines(fd, [&](std::uint64_t offset, std::uint64_t length,
                      std::string_view head, bool torn) {
        if (std::string_view key = lineKey(head); !torn && !key.empty())
            index_.insert_or_assign(std::string(key),
                                    Location{offset, length, id});
    });
    ::close(fd);
}

void
ResultStore::appendLine(const std::string &key, const std::string &line)
{
    if (packFd_ < 0) {
        // The directory is new, or another stamp's prune deleted it.
        std::error_code ec;
        fs::create_directories(packDir_, ec);
        for (;;) {
            // O_EXCL: a pack of a dead process that had this pid may
            // still be here, and no line may land in another's pack.
            std::string path =
                packDir_ + "/" + std::to_string(::getpid()) + "-" +
                std::to_string(nextPackSeq.fetch_add(
                    1, std::memory_order_relaxed)) +
                ".jsonl";
            packFd_ = ::open(path.c_str(),
                             O_WRONLY | O_CREAT | O_EXCL | O_APPEND |
                                 O_CLOEXEC,
                             0644);
            if (packFd_ >= 0) {
                packId_ = packs_.size();
                packs_.push_back(path);
                packSize_ = 0;
                break;
            }
            if (errno != EEXIST)
                fatal("cannot create result store pack '", path,
                      "': ", std::strerror(errno));
        }
    }
    if (!writeAll(packFd_, line)) {
        int err = errno;
        // Part of the line may be on disk. Never append after it:
        // the next put starts a fresh pack.
        ::close(packFd_);
        packFd_ = -1;
        fatal("cannot write result store pack '", packs_[packId_],
              "': ", std::strerror(err));
    }
    index_.insert_or_assign(key, Location{packSize_, line.size(), packId_});
    packSize_ += line.size();
}

std::optional<SimResult>
ResultStore::lookup(const std::string &key)
{
    Location at;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (auto it = index_.find(key); it != index_.end()) {
            at = it->second;
            path = packs_[at.pack];
        }
    }

    // The pack is gone if clear or prune ran since: a miss too.
    std::optional<SimResult> hit;
    if (!path.empty())
        if (std::optional<std::string> line =
                readAt(path, at.offset, at.length))
            hit = parseEntry(*line, path, key, stamp_);
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return hit;
}

void
ResultStore::put(const std::string &key, const Scenario &scenario,
                 const SimResult &sim)
{
    JsonValue doc = JsonValue::object();
    doc.set("key", JsonValue::string(key));
    doc.set("stamp", JsonValue::string(stamp_));
    doc.set("scenario", toJson(scenario));
    doc.set("sim", toJson(sim));
    std::string line = doc.dump(-1) + "\n";

    std::lock_guard<std::mutex> lock(mutex_);
    appendLine(key, line);
    puts_.fetch_add(1, std::memory_order_relaxed);
}

ResultStore::Stats
ResultStore::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.puts = puts_.load(std::memory_order_relaxed);
    return s;
}

ResultStore::Survey
ResultStore::survey() const
{
    Survey s;
    s.packs = listPacks(packDir_);
    std::string line;
    for (std::size_t id = 0; id < s.packs.size(); ++id) {
        const std::string &path = s.packs[id];
        int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            continue;
        scanLines(fd, [&](std::uint64_t offset, std::uint64_t length,
                          std::string_view head, bool torn) {
            s.bytes += length;
            std::string_view key = lineKey(head);
            if (torn || key.empty()) {
                ++s.corrupt;
                return;
            }
            line.resize(length);
            JsonValue doc; // stays null if unreadable or unparseable
            try {
                if (preadAll(fd, line.data(), length, offset))
                    doc = JsonValue::parse(line, path);
            } catch (const FatalError &) {
            }
            if (!doc.isObject()) {
                ++s.corrupt;
                return;
            }
            const JsonValue *stamp = doc.find("stamp");
            if (stamp && stamp->isString() &&
                stamp->asString("$.stamp") == stamp_)
                s.current.insert_or_assign(std::string(key),
                                           Location{offset, length, id});
            else
                ++s.stale;
        });
        ::close(fd);
    }

    // Another stamp's lines can never be hits: count them unparsed.
    std::error_code ec;
    const fs::path own(packDir_);
    for (fs::directory_iterator it(own.parent_path(), ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path() == own || !it->is_directory(ec))
            continue;
        s.foreign.push_back(it->path().string());
        for (const std::string &path : listPacks(it->path())) {
            int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
            if (fd < 0)
                continue;
            scanLines(fd, [&](std::uint64_t, std::uint64_t length,
                              std::string_view, bool) {
                s.bytes += length;
                ++s.stale;
            });
            ::close(fd);
        }
    }
    return s;
}

ResultStore::Usage
ResultStore::usage() const
{
    Survey s = survey();
    Usage u;
    u.entries = s.current.size();
    u.stale = s.stale;
    u.corrupt = s.corrupt;
    u.bytes = s.bytes;
    return u;
}

void
ResultStore::forget()
{
    if (packFd_ >= 0)
        ::close(packFd_);
    packFd_ = -1;
    packs_.clear();
    index_.clear();
}

void
ResultStore::removeSurveyed(const Survey &s) const
{
    for (const std::string &path : s.packs)
        ::unlink(path.c_str());
    std::error_code ec;
    for (const std::string &dir : s.foreign)
        fs::remove_all(dir, ec);
    // The one-file-per-entry layout of older builds is never read.
    fs::remove_all(fs::path(root_) / "objects", ec);
}

std::uint64_t
ResultStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Survey s = survey();
    forget();
    removeSurveyed(s);
    return s.current.size() + s.stale + s.corrupt;
}

std::uint64_t
ResultStore::prune()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Survey s = survey();
    forget();

    // Copy the survivors, in pack order, into a new pack the way
    // put() appends. A crash part-way leaves whole-line duplicates of
    // entries that the old packs still hold.
    std::vector<std::pair<std::string, Location>> keep(s.current.begin(),
                                                       s.current.end());
    std::sort(keep.begin(), keep.end(), [](const auto &a, const auto &b) {
        return std::tie(a.second.pack, a.second.offset) <
               std::tie(b.second.pack, b.second.offset);
    });
    for (const auto &[key, at] : keep)
        // A pack deleted or cut since the survey loses the entry.
        if (std::optional<std::string> line =
                readAt(s.packs[at.pack], at.offset, at.length))
            appendLine(key, *line);
    // The survivors must be on disk before their old copies go.
    if (packFd_ >= 0 && ::fsync(packFd_) != 0)
        fatal("cannot fsync result store pack '", packs_[packId_],
              "': ", std::strerror(errno));
    removeSurveyed(s);
    return s.stale + s.corrupt;
}

} // namespace snoc
