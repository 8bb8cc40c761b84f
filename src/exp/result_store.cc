#include "exp/result_store.hh"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "exp/plan_io.hh"
#include "exp/serialize.hh"

namespace snoc {

namespace fs = std::filesystem;

namespace {

// Bumping this invalidates every existing store (and journal) when
// the entry schema itself changes, independently of code versions.
constexpr const char *kStoreSchema = "snoc-store-v1";

// Temp-file sequence numbers. One counter per process, not per
// handle: two handles on one root must never pick the same name.
std::atomic<std::uint64_t> nextTempSeq{0};

bool
looksLikeEntry(const fs::path &p)
{
    return p.extension() == ".json";
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

ResultStore::ResultStore(std::string root, std::string stamp)
    : root_(std::move(root)),
      stamp_(stamp.empty() ? resultStoreStamp() : std::move(stamp))
{
    if (root_.empty())
        fatal("result store root must not be empty");
    std::error_code ec;
    fs::create_directories(fs::path(root_) / "objects", ec);
    if (ec)
        fatal("cannot create result store at '", root_,
              "': ", ec.message());
}

std::string
ResultStore::resolveRoot()
{
    return envString(kEnvResultStore, "");
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    return (fs::path(root_) / "objects" / key.substr(0, 2) /
            (key + ".json"))
        .string();
}

std::optional<SimResult>
ResultStore::lookup(const std::string &key)
{
    std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
        JsonValue doc = JsonValue::parse(text, path);
        const JsonValue *stamp = doc.find("stamp");
        const JsonValue *sim = doc.find("sim");
        if (!stamp || !sim || stamp->asString("$.stamp") != stamp_) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        SimResult r = simResultFromJson(*sim, "$.sim");
        hits_.fetch_add(1, std::memory_order_relaxed);
        return r;
    } catch (const FatalError &) {
        // A corrupt entry (torn write from a crashed process, disk
        // damage) is a cache miss, never a campaign failure.
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
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
    std::string text = doc.dump(2) + "\n";

    std::string path = entryPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        fatal("cannot create result store directory for '", path,
              "': ", ec.message());

    // Every put writes its own temp file and renames it into place.
    // The rename is atomic, so concurrent puts of one key (from this
    // process or another) and crashes mid-put can never expose a
    // partially written entry under the content-addressed name.
    std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                      std::to_string(nextTempSeq.fetch_add(
                          1, std::memory_order_relaxed)) +
                      ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot write result store entry '", tmp, "'");
        out << text;
        out.flush();
        if (!out) {
            fs::remove(tmp, ec);
            fatal("short write to result store entry '", tmp, "'");
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        std::string why = ec.message();
        fs::remove(tmp, ec);
        fatal("cannot commit result store entry '", path, "': ", why);
    }
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

ResultStore::Usage
ResultStore::usage() const
{
    Usage u;
    std::error_code ec;
    fs::path objects = fs::path(root_) / "objects";
    for (fs::recursive_directory_iterator
             it(objects, fs::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec) || !looksLikeEntry(it->path()))
            continue;
        u.bytes += it->file_size(ec);
        try {
            JsonValue doc = JsonValue::parse(
                readTextFile(it->path().string()), it->path().string());
            const JsonValue *stamp = doc.find("stamp");
            if (stamp && stamp->isString() &&
                stamp->asString("$.stamp") == stamp_)
                ++u.entries;
            else
                ++u.stale;
        } catch (const FatalError &) {
            ++u.corrupt;
        }
    }
    return u;
}

std::uint64_t
ResultStore::clear()
{
    std::uint64_t removed = 0;
    std::error_code ec;
    fs::path objects = fs::path(root_) / "objects";
    std::vector<fs::path> victims;
    for (fs::recursive_directory_iterator
             it(objects, fs::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && looksLikeEntry(it->path()))
            victims.push_back(it->path());
    }
    for (const fs::path &p : victims)
        if (fs::remove(p, ec) && !ec)
            ++removed;
    return removed;
}

std::uint64_t
ResultStore::prune()
{
    std::uint64_t removed = 0;
    std::error_code ec;
    fs::path objects = fs::path(root_) / "objects";
    std::vector<fs::path> victims;
    for (fs::recursive_directory_iterator
             it(objects, fs::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec) || !looksLikeEntry(it->path()))
            continue;
        bool keep = false;
        try {
            JsonValue doc = JsonValue::parse(
                readTextFile(it->path().string()), it->path().string());
            const JsonValue *stamp = doc.find("stamp");
            keep = stamp && stamp->isString() &&
                   stamp->asString("$.stamp") == stamp_;
        } catch (const FatalError &) {
            keep = false;
        }
        if (!keep)
            victims.push_back(it->path());
    }
    for (const fs::path &p : victims)
        if (fs::remove(p, ec) && !ec)
            ++removed;
    return removed;
}

} // namespace snoc
