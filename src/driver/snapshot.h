// Query-while-ingest serving: consistent sketch snapshots plus a query
// thread that answers from them while ingestion keeps running.
//
// AGM12's headline property is that a linear sketch answers structural
// queries at ANY point of the stream, not just at the end — but decoding
// (forest extraction, cut search) takes orders of magnitude longer than
// applying one update, so decoding in the ingest path would stall the
// stream. The split here mirrors the buffered-ingest / queryable-state
// architecture of production streaming-connectivity systems:
//
//   ingest thread                      query thread
//   ─────────────                      ────────────
//   Push Push Push ...                 Query("components")
//   Publish() ──────┐                    │ reads latest snapshot,
//     drain barrier │ SnapshotView()     │ decodes, answers with the
//     (flush,       ├───► SnapshotStore ─┘ stream_pos it reflects
//      apply queued │     (latest slot)
//      batches here,│
//      wait workers)│
//   Push Push ... ◄─┘ resumes immediately
//
// The drain applies on the ingest thread: after flushing the gutters it
// pops and applies queued batches itself and waits only for the batches
// workers already hold (src/driver/ingest_pipeline.h).
//
// Publish() is SketchSession::Publish (src/session/sketch_session.h), the one
// drain-barrier capture in the tree. A snapshot is a SnapshotView of the sketch
// pinned to the stream position the drain barrier reached. With the COW-paged
// arenas (src/sketch/cow_arena.h) that is an O(pages) fork — microseconds to
// low milliseconds — not a deep clone: the live sketch and the snapshot share
// every arena page until ingestion first touches one, which then pays a single
// ~64 KiB first-touch copy. Snapshots are immutable and handed out as
// shared_ptr<const>, so a slow query keeps its pages alive while newer
// snapshots supersede it, and every answer states exactly which stream prefix
// it reflects. Linearity makes each answer byte-identical to stopping ingestion
// at that position and querying (tests/snapshot_test.cc proves it per
// registered family, worker count
// and gutter size).
//
// Snapshots may also carry an EagerCut (src/driver/eager_forest.h): while
// the stream prefix is insert-only, `connected`/`components` queries are
// answered from the exact DSU partition in O(1) with zero sketch decode;
// the first invalidating deletion drops the cut and queries transparently
// fall back to sketch decoding.
#ifndef GRAPHSKETCH_SRC_DRIVER_SNAPSHOT_H_
#define GRAPHSKETCH_SRC_DRIVER_SNAPSHOT_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "src/core/sketch_registry.h"
#include "src/core/sync.h"
#include "src/driver/eager_forest.h"

namespace gsketch {

/// Where a snapshot's latency went: `drain_ms` is the barrier — flushing
/// gutters and waiting for workers to apply every queued half-update
/// (relocated ingestion work, not overhead); `publish_ms` is the capture
/// itself — with COW arenas, an O(pages) fork plus the store publish.
struct SnapshotTiming {
  double drain_ms = 0;
  double publish_ms = 0;
};

/// One immutable capture of sketch state: the (COW-shared) view plus the
/// stream position (in stream tokens) it reflects, and — when the session
/// maintains a still-valid eager forest — the exact connectivity
/// partition at that position.
struct SketchSnapshot {
  uint64_t stream_pos = 0;
  std::unique_ptr<const LinearSketch> sketch;
  /// Exact partition at stream_pos (insert-only prefix); nullptr when the
  /// eager path is off or a deletion invalidated it. Queries it can serve
  /// skip sketch decode entirely.
  std::shared_ptr<const EagerCut> eager;
};

/// Thread-safe latest-snapshot slot: the ingest thread publishes, any
/// number of query threads read. Readers get a shared_ptr that stays
/// valid (and immutable) however far ingestion advances past it.
class SnapshotStore {
 public:
  /// Publishes a new snapshot and returns it. Positions at or past the
  /// current latest replace it; an out-of-order (older) publish is
  /// dropped and the existing newer snapshot is returned instead.
  std::shared_ptr<const SketchSnapshot> Publish(
      uint64_t stream_pos, std::unique_ptr<const LinearSketch> sketch,
      std::shared_ptr<const EagerCut> eager = nullptr);

  /// The most recent snapshot, or nullptr before the first Publish.
  std::shared_ptr<const SketchSnapshot> Latest() const;

  /// Snapshots accepted by Publish so far.
  uint64_t published() const;

 private:
  // Leaf lock (sync.h): held only around the slot swap/read, never while
  // forking or decoding a sketch.
  mutable Mutex mu_;
  std::shared_ptr<const SketchSnapshot> latest_ GSKETCH_GUARDED_BY(mu_);
  uint64_t published_ GSKETCH_GUARDED_BY(mu_) = 0;
};

/// Answers `query` from an exact eager cut when (a) the family (`tag`)
/// would accept exactly this query shape on its sketch path and (b) the
/// cut can serve it: "components", "connected u v", and — connectivity
/// only — bare "connected". Anything else, malformed node arguments
/// included, returns nullopt so the sketch path produces its usual answer
/// or error text. The two paths agree whenever both can answer: the cut
/// is exact and the sketch decodes the same partition.
std::optional<std::string> EagerAnswer(const EagerCut& cut, AlgTag tag,
                                       const std::string& query);

/// Decides when periodic snapshots are due, COALESCING overdue ticks:
/// when one publish takes longer than the interval, the ticks it ran
/// through collapse into the single snapshot that is already due next,
/// instead of queueing a backlog of stale captures (the pre-COW 100 ms
/// sweep in BENCH_E15 spent more time working off that backlog than
/// ingesting). Single-threaded, driven from the ingest loop.
class SnapshotScheduler {
 public:
  /// Wall-clock cadence of `interval_seconds` (<= 0 disables); the first
  /// tick is due at `start_seconds + interval_seconds`. Times come from
  /// any monotone clock the caller likes.
  explicit SnapshotScheduler(double interval_seconds,
                             double start_seconds = 0);

  /// True when at least one tick is overdue at `now_seconds`.
  bool Due(double now_seconds) const;

  /// Acknowledges a snapshot published at `now_seconds`: advances past
  /// every tick that is already overdue, counting the skipped ones.
  void Taken(double now_seconds);

  /// Overdue ticks collapsed into an already-taken snapshot.
  uint64_t coalesced() const { return coalesced_; }

 private:
  double interval_;
  double next_;
  uint64_t coalesced_ = 0;
};

/// Answers queries from snapshots on its own thread while the ingest
/// thread keeps pushing. Submitted queries are answered in submission
/// order; each answer is prefixed with the stream_pos it reflects:
///
///   @<stream_pos> <query> => <answer>          (single-line answers)
///   @<stream_pos> <query> =>\n<answer lines>   (multi-line answers)
///
/// Queries submitted with an explicit snapshot are pinned to it
/// (deterministic: the serve script path); queries submitted bare resolve
/// the store's latest snapshot when they reach the front of the queue.
///
/// Multi-session serving: one engine answers for ANY number of sessions —
/// the session is resolved per query, not per engine. A query submitted
/// with a session label is answered as
///
///   <label>@<stream_pos> <query> => <answer>
///
/// where the snapshot is the pinned one (or the labeled Submit's own
/// store's latest). Unlabeled Submits keep the historical single-graph
/// output byte-identical.
class QueryEngine {
 public:
  /// Answers against `*store` (which must outlive the engine), writing
  /// to `out`. The worker thread starts immediately. `store` may be
  /// nullptr for a purely multi-session engine (every Submit then pins a
  /// snapshot or names a per-session store).
  QueryEngine(const SnapshotStore* store, std::FILE* out);

  /// Drains the queue and joins the worker (idempotent).
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enqueues a query answered against the latest snapshot at execution
  /// time. Thread-safe.
  void Submit(std::string query);

  /// Enqueues a query pinned to `snap` (may be nullptr: answered as "no
  /// snapshot yet"). Thread-safe.
  void Submit(std::string query, std::shared_ptr<const SketchSnapshot> snap);

  /// Enqueues a session-labeled query pinned to `snap`; the answer header
  /// becomes `<label>@<pos>`. Thread-safe.
  void Submit(std::string label, std::string query,
              std::shared_ptr<const SketchSnapshot> snap);

  /// Enqueues a session-labeled query answered against `session_store`'s
  /// latest snapshot at execution time (the store must outlive the
  /// engine). Thread-safe.
  void Submit(std::string label, std::string query,
              const SnapshotStore* session_store);

  /// Blocks until every submitted query has been answered, then stops the
  /// worker. Further Submits are dropped. Idempotent.
  void Finish();

  /// Queries answered (including error answers) so far.
  uint64_t answered() const;

  /// Queries whose sketch rejected the query (unknown verb, bad args) or
  /// that arrived before any snapshot existed.
  uint64_t errors() const;

  /// Queries answered from a snapshot's exact eager cut (no sketch
  /// decode touched).
  uint64_t eager_answered() const;

 private:
  struct Item {
    std::string label;  // empty = legacy single-graph header
    std::string query;
    std::shared_ptr<const SketchSnapshot> pin;
    // Store to resolve Latest() from when not pinned: the engine's own
    // for unlabeled Submits, the labeled Submit's session store
    // otherwise (nullptr + !pinned answers "no snapshot yet").
    const SnapshotStore* store = nullptr;
    bool pinned = false;
  };

  void Loop();

  const SnapshotStore* const store_;
  std::FILE* const out_;
  // Leaf lock (sync.h): guards the submission queue and counters only.
  // The worker decodes answers with mu_ RELEASED — a slow query must not
  // block Submit — so every guarded access sits in a short lock scope.
  mutable Mutex mu_;
  CondVar work_;
  CondVar idle_;
  std::deque<Item> queue_ GSKETCH_GUARDED_BY(mu_);
  bool stopping_ GSKETCH_GUARDED_BY(mu_) = false;
  bool finished_ GSKETCH_GUARDED_BY(mu_) = false;
  uint64_t submitted_ GSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t answered_ GSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t errors_ GSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t eager_answered_ GSKETCH_GUARDED_BY(mu_) = 0;
  std::thread thread_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_SNAPSHOT_H_
