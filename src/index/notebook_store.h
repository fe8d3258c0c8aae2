#ifndef ATENA_INDEX_NOTEBOOK_STORE_H_
#define ATENA_INDEX_NOTEBOOK_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "index/vector_index.h"

namespace atena {

/// Cross-session notebook corpus (DESIGN.md §14): retired serving sessions
/// register their display-vector sequences here, and new sessions can look
/// up the most similar past notebooks — the NotebookRAG-style retrieval
/// primitive the serving runtime uses to deduplicate or warm-start
/// sessions, and the corpus the ILAEDA pretraining track will consume.
///
/// Each notebook is summarized by its display-vector centroid (the mean
/// over the zero-padded union space) and indexed in a VectorIndex, so
/// top-k similarity queries are sub-linear in corpus size while staying
/// exact for the centroid metric. Exact-duplicate detection is separate
/// and bitwise: sequences are hashed over their raw double bits, so
/// FindDuplicate never false-positives on merely-close notebooks.
///
/// Thread-safe: all public methods take an internal mutex, so one store
/// can be shared across SessionManagers (or a manager and an offline
/// reader). Queries under the lock are short — sub-linear index descent
/// plus a handful of exact re-checks.
class NotebookStore {
 public:
  struct Options {
    VectorIndex::Options index;
    /// Sequences shorter than this are not registered (a root display
    /// alone is not a notebook). Counted in skipped_registrations.
    size_t min_sequence_length = 2;
  };

  /// Provenance of one registered notebook.
  struct Entry {
    uint64_t notebook_id = 0;   // dense, assigned by Register (0-based)
    uint64_t session_id = 0;
    uint64_t session_seed = 0;
    uint32_t length = 0;        // number of display vectors
  };

  /// One retrieval hit: the registered notebook plus its centroid
  /// Euclidean distance to the query sequence's centroid (0 = identical
  /// centroids; ties broken by lowest notebook id).
  struct Match {
    Entry entry;
    double distance = 0.0;
  };

  NotebookStore();
  explicit NotebookStore(Options options);

  /// Registers a display-vector sequence; returns its notebook id, or -1
  /// (as int64) when the sequence is below min_sequence_length.
  int64_t Register(uint64_t session_id, uint64_t session_seed,
                   const std::vector<std::vector<double>>& display_vectors);

  /// The k registered notebooks whose centroids are nearest to the
  /// query sequence's centroid, nearest first.
  std::vector<Match> TopK(
      const std::vector<std::vector<double>>& display_vectors, int k) const;

  /// Bitwise-exact duplicate lookup: the id of the first registered
  /// notebook whose sequence equals `display_vectors` element for
  /// element (every double bit-identical), or -1 when none exists.
  int64_t FindDuplicate(
      const std::vector<std::vector<double>>& display_vectors) const;

  size_t size() const;
  int64_t skipped_registrations() const;
  Entry entry(uint64_t notebook_id) const;
  std::vector<std::vector<double>> sequence(uint64_t notebook_id) const;

  /// Load's upper bounds on the saved index options. A sidecar is
  /// untrusted input even when its CRC checks out, and these cap what
  /// replaying its registrations can cost; a store built with larger
  /// options saves a file Load rejects.
  static constexpr uint32_t kMaxBranching = 1024;
  static constexpr uint32_t kMaxLeafCapacity = 1 << 16;
  static constexpr uint32_t kMaxKmeansIterations = 1024;

  /// Persists the corpus (entries + sequences) as a CRC-framed container;
  /// Load rebuilds the centroid index and duplicate table by replaying
  /// registrations, so a loaded store answers queries identically. Load
  /// fails with a Status, never aborts, on any malformed payload: options
  /// outside [2, kMaxBranching] / [1, kMaxLeafCapacity] /
  /// [1, kMaxKmeansIterations] are InvalidArgument, and a count or length
  /// the payload cannot hold is IOError.
  Status Save(const std::string& path) const;
  static Result<NotebookStore> Load(const std::string& path);

 private:
  static uint64_t SequenceHash(
      const std::vector<std::vector<double>>& sequence);
  static std::vector<double> Centroid(
      const std::vector<std::vector<double>>& sequence);
  int64_t RegisterLocked(uint64_t session_id, uint64_t session_seed,
                         std::vector<std::vector<double>> display_vectors);

  Options options_;
  /// Held by pointer so the store stays movable (Result<NotebookStore>).
  mutable std::unique_ptr<std::mutex> mutex_;
  VectorIndex centroids_;                       // id i = notebook i
  std::vector<Entry> entries_;
  std::vector<std::vector<std::vector<double>>> sequences_;
  /// Raw-bits sequence hash -> notebook ids (verified element-wise on
  /// lookup, so hash collisions cannot produce a false duplicate).
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_hash_;
  int64_t skipped_ = 0;
};

}  // namespace atena

#endif  // ATENA_INDEX_NOTEBOOK_STORE_H_
