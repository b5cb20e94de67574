#include "persist/artifact_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace croute::persist {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kWriteChunk = std::size_t{1} << 20;  ///< 1 MiB
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "croute-manifest v1";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The rejection reasons a recovery note carries: the first three
/// "file: reason" strings, each cut to 200 chars, then "+N more" — enough
/// to say why without letting a directory of hostile files bloat a note
/// that logs and the CLI print whole.
std::string rejection_reasons(const std::vector<std::string>& rejected) {
  constexpr std::size_t kMaxReasons = 3;
  constexpr std::size_t kMaxChars = 200;
  std::string out;
  for (std::size_t i = 0; i < rejected.size() && i < kMaxReasons; ++i) {
    if (i > 0) out += "; ";
    out += rejected[i].size() <= kMaxChars
               ? rejected[i]
               : rejected[i].substr(0, kMaxChars - 3) + "...";
  }
  if (rejected.size() > kMaxReasons) {
    out += "; +" + std::to_string(rejected.size() - kMaxReasons) + " more";
  }
  return out;
}

[[noreturn]] void fail_sys(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " failed for " + path + ": " +
                           std::strerror(errno));
}

/// Closes the fd on scope exit (exception paths must not leak it).
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  void release() { fd = -1; }
};

/// "scheme-%08llu.art" → generation; nullopt for anything else (tmp
/// litter, MANIFEST, foreign files).
std::uint64_t parse_generation(const std::string& name) {
  unsigned long long gen = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "scheme-%llu.ar%c", &gen, &tail) == 2 &&
      tail == 't' && name.size() >= 5 &&
      name.compare(name.size() - 4, 4, ".art") == 0) {
    return gen;
  }
  return 0;
}

std::string generation_name(std::uint64_t gen) {
  char name[32];
  std::snprintf(name, sizeof name, "scheme-%08llu.art",
                static_cast<unsigned long long>(gen));
  return name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  if (!is.good() && !is.eof()) throw std::runtime_error("cannot read " + path);
  return std::move(os).str();
}

}  // namespace

ArtifactStore::ArtifactStore(StoreOptions options, obs::MetricRegistry* metrics,
                             obs::TraceRecorder* trace)
    : options_(std::move(options)), trace_(trace) {
  if (options_.retain == 0) options_.retain = 1;
  // Malformed fault specs throw here, at configuration time — a typo'd
  // CROUTE_PERSIST_FAULT must never make a fault test pass vacuously.
  injector_.arm(plan_from_env());
  std::error_code ec;
  fs::create_directories(options_.dir, ec);  // publish reports failures
  if (metrics != nullptr) {
    written_ = &metrics->counter("croute_persist_artifacts_written_total",
                                 "scheme artifacts published atomically");
    recovered_ = &metrics->counter("croute_persist_artifacts_recovered_total",
                                   "scheme artifacts recovered at startup");
    rejected_ = &metrics->counter(
        "croute_persist_artifacts_rejected_total",
        "artifact candidates rejected during recovery (corrupt, "
        "incompatible, or version-skewed)");
    publish_failures_ = &metrics->counter(
        "croute_persist_publish_failures_total",
        "artifact publishes that failed (service kept serving from memory)");
    bytes_written_ = &metrics->counter("croute_persist_bytes_written_total",
                                       "artifact bytes written (pre-fsync)");
    verify_us_ = &metrics->histogram(
        "croute_persist_verify_us",
        "read + verify + decode wall time of a successful recovery");
  }
  last_published_ = newest_generation();
}

void ArtifactStore::atomic_write(const std::string& path,
                                 std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  FdGuard fd;
  fd.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd.fd < 0) fail_sys("open", tmp);

  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t len = std::min(kWriteChunk, bytes.size() - off);
    switch (injector_.on_op(FaultOp::kWrite)) {
      case FaultAction::kNone:
        break;
      case FaultAction::kCrash:
        // Die like the power did: whatever chunks already landed form a
        // realistic torn prefix under the .tmp name (never the live one).
        std::raise(SIGKILL);
        break;
      case FaultAction::kShort:
        // A torn write: half the chunk reaches the disk, then the error
        // surfaces. The .tmp stays behind as litter (swept next publish).
        (void)!::write(fd.fd, bytes.data() + off, len / 2);
        throw std::runtime_error("injected short write on " + tmp);
      case FaultAction::kFail:
        throw std::runtime_error("injected write failure on " + tmp);
      case FaultAction::kEnospc:
        errno = ENOSPC;
        fail_sys("write (injected ENOSPC)", tmp);
    }
    const ssize_t wrote = ::write(fd.fd, bytes.data() + off,
                                  static_cast<std::size_t>(len));
    if (wrote != static_cast<ssize_t>(len)) fail_sys("write", tmp);
    off += len;
  }

  switch (injector_.on_op(FaultOp::kFsync)) {
    case FaultAction::kNone:
      break;
    case FaultAction::kCrash:
      std::raise(SIGKILL);
      break;
    default:
      throw std::runtime_error("injected fsync failure on " + tmp);
  }
  if (::fsync(fd.fd) != 0) fail_sys("fsync", tmp);
  ::close(fd.fd);
  fd.release();

  switch (injector_.on_op(FaultOp::kRename)) {
    case FaultAction::kNone:
      break;
    case FaultAction::kCrash:
      std::raise(SIGKILL);
      break;
    default:
      throw std::runtime_error("injected rename failure on " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail_sys("rename", tmp);

  // Persist the rename itself: fsync the directory so the new name
  // survives a crash (a file can be durable under a name that is not).
  FdGuard dfd;
  dfd.fd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd.fd >= 0) {
    switch (injector_.on_op(FaultOp::kFsync)) {
      case FaultAction::kNone:
        break;
      case FaultAction::kCrash:
        std::raise(SIGKILL);
        break;
      default:
        throw std::runtime_error("injected directory fsync failure on " +
                                 options_.dir);
    }
    if (::fsync(dfd.fd) != 0) fail_sys("fsync directory", options_.dir);
  }
}

void ArtifactStore::write_manifest(const std::string& live,
                                   const std::string& backup) {
  std::string text = std::string(kManifestHeader) + "\nlive " + live +
                     "\nbackup " + (backup.empty() ? "-" : backup) + "\n";
  atomic_write(options_.dir + "/" + kManifestName, text);
}

std::vector<std::string> ArtifactStore::manifest_candidates() const {
  std::vector<std::string> out;
  std::ifstream is(options_.dir + "/" + kManifestName);
  if (!is) return out;
  std::string line;
  if (!std::getline(is, line) || line != kManifestHeader) return out;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key, value;
    ls >> key >> value;
    if ((key == "live" || key == "backup") && !value.empty() && value != "-" &&
        value.find('/') == std::string::npos) {
      out.push_back(value);
    }
  }
  return out;
}

std::vector<std::string> ArtifactStore::scan_artifacts() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::uint64_t gen = parse_generation(name);
    if (gen != 0) found.emplace_back(gen, name);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [gen, name] : found) out.push_back(std::move(name));
  return out;
}

std::uint64_t ArtifactStore::newest_generation() const {
  const auto names = scan_artifacts();
  return names.empty() ? 0 : parse_generation(names.front());
}

void ArtifactStore::retire_old(const std::string& live,
                               const std::string& backup) {
  const auto names = scan_artifacts();  // newest first
  std::uint32_t kept = 0;
  for (const std::string& name : names) {
    const bool pinned = name == live || name == backup;
    if (kept < options_.retain || pinned) {
      ++kept;
      continue;
    }
    std::error_code ec;
    fs::remove(fs::path(options_.dir) / name, ec);  // best-effort
  }
}

PublishResult ArtifactStore::publish_generation(const SchemePackage& pkg) {
  const std::lock_guard<std::mutex> lock(publish_mu_);
  using clock = std::chrono::steady_clock;
  PublishResult res;
  obs::TraceRecorder::Span span(trace_, "artifact_publish", "persist");
  try {
    // Sweep .tmp litter from crashed publishes before making more.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
      if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
    }

    res.generation = std::max(last_published_, newest_generation()) + 1;
    const auto t0 = clock::now();
    const std::string bytes = encode_package(pkg, res.generation);
    res.encode_s = seconds_since(t0);
    res.bytes = bytes.size();

    const std::string name = generation_name(res.generation);
    const std::string path = options_.dir + "/" + name;
    const auto t1 = clock::now();
    atomic_write(path, bytes);
    // Demote the previous live artifact (if it still exists) to backup.
    std::string backup;
    const auto prev = manifest_candidates();
    if (!prev.empty() && prev.front() != name &&
        fs::exists(fs::path(options_.dir) / prev.front())) {
      backup = prev.front();
    }
    write_manifest(name, backup);
    retire_old(name, backup);
    res.write_s = seconds_since(t1);
    res.path = path;
    res.ok = true;
    last_published_ = res.generation;
    if (written_ != nullptr) written_->inc();
    if (bytes_written_ != nullptr) bytes_written_->inc(res.bytes);
    span.arg("generation", static_cast<double>(res.generation));
    span.arg("bytes", static_cast<double>(res.bytes));
  } catch (const std::exception& e) {
    res.error = e.what();
    if (publish_failures_ != nullptr) publish_failures_->inc();
  }
  return res;
}

RecoverResult ArtifactStore::recover_newest(const RouteServiceOptions& serving,
                                            VertexId expected_n) {
  using clock = std::chrono::steady_clock;
  RecoverResult out;
  obs::TraceRecorder::Span span(trace_, "artifact_recover", "persist");
  // Candidate order IS the degradation ladder: the manifest's live
  // artifact, its retained backup, then anything else in the directory
  // newest-first (a stale or missing manifest must not strand an intact
  // artifact).
  std::vector<std::string> candidates = manifest_candidates();
  for (std::string& name : scan_artifacts()) {
    if (std::find(candidates.begin(), candidates.end(), name) ==
        candidates.end()) {
      candidates.push_back(std::move(name));
    }
  }
  for (const std::string& name : candidates) {
    const std::string path = options_.dir + "/" + name;
    const auto t0 = clock::now();
    try {
      obs::TraceRecorder::Span verify(trace_, "artifact_verify", "persist");
      const std::string bytes = read_file(path);
      // Header-only pass first: version skew and torn files bounce here,
      // before any payload decoding.
      const ArtifactMeta meta = read_artifact_meta(bytes);
      if (meta.n != expected_n) {
        throw std::invalid_argument(
            "artifact: built for n=" + std::to_string(meta.n) +
            ", service generates n=" + std::to_string(expected_n));
      }
      out.package = decode_package(bytes, serving, &out.meta);
      verify.finish();
      out.verify_s = seconds_since(t0);
      out.path = path;
      out.note = "recovered generation " + std::to_string(out.meta.generation) +
                 " from " + name;
      if (!out.rejected.empty()) {
        out.note += " (after " + std::to_string(out.rejected.size()) +
                    " rejected candidate" +
                    (out.rejected.size() == 1 ? ": " : "s: ") +
                    rejection_reasons(out.rejected) + ")";
      }
      if (recovered_ != nullptr) recovered_->inc();
      if (verify_us_ != nullptr) verify_us_->record(0, out.verify_s * 1e6);
      span.arg("generation", static_cast<double>(out.meta.generation));
      span.arg("rejected", static_cast<double>(out.rejected.size()));
      return out;
    } catch (const std::exception& e) {
      // Graceful degradation: record the reason, fall one candidate
      // further down the ladder. Never let hostile bytes escape as a
      // crash — the caller's last rung is a fresh preprocessing run.
      out.rejected.push_back(name + ": " + e.what());
      if (rejected_ != nullptr) rejected_->inc();
    }
  }
  out.note = candidates.empty()
                 ? "no artifacts in " + options_.dir
                 : "no valid artifact (" + std::to_string(out.rejected.size()) +
                       " candidate(s) rejected: " +
                       rejection_reasons(out.rejected) + ")";
  span.arg("rejected", static_cast<double>(out.rejected.size()));
  return out;
}

}  // namespace croute::persist
