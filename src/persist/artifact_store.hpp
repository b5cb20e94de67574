/// \file artifact_store.hpp
/// \brief Atomic publish / recover lifecycle for scheme artifacts.
///
/// The artifact codec (artifact.hpp) is pure bytes; this tier is the
/// filesystem protocol that makes those bytes crash-safe:
///
///  - **publish**: encode → write to `scheme-<gen>.art.tmp` in 1 MiB
///    chunks → fsync → rename onto `scheme-<gen>.art` → fsync the
///    directory → atomically rewrite MANIFEST (same tmp/fsync/rename
///    dance) to point at the new live artifact, demoting the previous
///    one to backup → unlink generations beyond the retention budget.
///    A crash at ANY point leaves either the old MANIFEST naming the old
///    (intact, fsynced) artifact, or the new MANIFEST naming the new one
///    — the classic write-ahead rename protocol; *.tmp litter is inert
///    and swept on the next publish.
///  - **recover**: try the MANIFEST's live artifact, then its backup,
///    then every `scheme-*.art` in the directory newest-first. Each
///    candidate is fully verified (header CRC, whole-file CRC, section
///    CRCs, fingerprints, options digest) before it may serve; every
///    rejection is *recorded, not thrown* — a corrupt store degrades to
///    a fresh preprocessing run with a reason string, never a crash.
///
/// Every write/fsync/rename goes through a FaultInjector
/// (CROUTE_PERSIST_FAULT), which is how the corruption matrix in
/// tests/test_persist.cpp and the CI kill/recover job prove the claims
/// above instead of asserting them. Publishes and recoveries emit
/// "persist"-category trace spans and croute_persist_* metrics when the
/// store is given the service's recorder/registry.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "persist/artifact.hpp"
#include "persist/fault_injection.hpp"

namespace croute::obs {
class MetricRegistry;
class Counter;
class LogHistogram;
class TraceRecorder;
}  // namespace croute::obs

namespace croute::persist {

struct StoreOptions {
  std::string dir;           ///< artifact directory (created if absent)
  std::uint32_t retain = 2;  ///< artifact generations kept on disk (>= 1)
};

/// Outcome of one publish. ok=false is *graceful*: the service keeps
/// serving from memory and records why the disk copy is stale.
struct PublishResult {
  bool ok = false;
  std::string path;               ///< published artifact (when ok)
  std::uint64_t generation = 0;   ///< store generation number assigned
  std::uint64_t bytes = 0;        ///< artifact size
  double encode_s = 0;            ///< serialize wall time
  double write_s = 0;             ///< write+fsync+rename wall time
  std::string error;              ///< why publish failed (when !ok)
};

/// Outcome of one recovery attempt. package == nullptr means every
/// candidate was rejected (or none existed) and the caller must build
/// fresh; `rejected` then says exactly why each one failed.
struct RecoverResult {
  SchemePackagePtr package;
  ArtifactMeta meta;                  ///< of the recovered artifact
  std::string path;                   ///< file that served (when recovered)
  double verify_s = 0;                ///< read + verify + decode wall time
  std::vector<std::string> rejected;  ///< "file: reason" per rejected candidate
  /// One-line human-readable outcome. When candidates were rejected it
  /// names why: the first 3 "file: reason" strings (each at most 200
  /// chars), then "+N more".
  std::string note;
};

/// The artifact directory lifecycle. Thread-safe: publishes serialize on
/// an internal mutex (the rebuild worker and the constructor may race).
class ArtifactStore {
 public:
  /// Creates the directory if needed and arms the fault injector from
  /// CROUTE_PERSIST_FAULT. \p metrics / \p trace may be nullptr (no
  /// observability); when given they must outlive the store.
  explicit ArtifactStore(StoreOptions options,
                         obs::MetricRegistry* metrics = nullptr,
                         obs::TraceRecorder* trace = nullptr);

  /// Encodes \p pkg and publishes it atomically as the next store
  /// generation (max existing + 1 — independent of the service's
  /// in-process generation counter, so restarts never collide). Never
  /// throws: failures (injected or real) come back in the result.
  PublishResult publish_generation(const SchemePackage& pkg);

  /// Recovers the newest valid artifact compatible with \p serving
  /// (options digest) and \p expected_n vertices. Never throws.
  RecoverResult recover_newest(const RouteServiceOptions& serving,
                               VertexId expected_n);

  /// Largest generation number on disk (0 when empty/unreadable).
  std::uint64_t newest_generation() const;

  const StoreOptions& options() const noexcept { return options_; }
  FaultInjector& fault_injector() noexcept { return injector_; }

 private:
  /// Writes \p bytes to \p path via tmp → fsync → rename → dir fsync,
  /// every operation through the injector. Throws std::runtime_error on
  /// failure (callers translate into results).
  void atomic_write(const std::string& path, std::string_view bytes);
  void write_manifest(const std::string& live, const std::string& backup);
  /// MANIFEST candidates (live, then backup), empty when absent/corrupt.
  std::vector<std::string> manifest_candidates() const;
  /// All scheme-*.art files, newest generation first.
  std::vector<std::string> scan_artifacts() const;
  void retire_old(const std::string& live, const std::string& backup);

  StoreOptions options_;
  FaultInjector injector_;
  std::mutex publish_mu_;
  std::uint64_t last_published_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* written_ = nullptr;
  obs::Counter* recovered_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* publish_failures_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::LogHistogram* verify_us_ = nullptr;
};

}  // namespace croute::persist
