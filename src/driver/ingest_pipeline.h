// The shared, type-erased ingestion pipeline: ONE worker pool and queue
// serving ANY number of co-hosted sketches ("sessions").
//
// AGM linear sketches make co-hosting cheap — all tenants share the same
// cell/kernel machinery, per-tenant state is just arenas — so the
// reusable machinery (worker pool, the shared queue, the per-node stripe
// locks, the drain barrier) lives here, type-erased behind IngestSink,
// and each tenant attaches a CHANNEL carrying only its private
// producer-side state (gutters, eager forest, counters). SessionManager
// (src/session/) is the one front door: it runs N named sessions (one,
// for the single-graph CLI commands) over one pipeline. Tests that drive
// a concrete sketch or a fake Alg attach an AlgIngestSink directly.
//
// There is one ingestion path. Every stream token's two endpoint halves
// go into the channel's per-node gutters (src/driver/gutter.h); every
// gutter flush becomes one dense NodeBatch on ONE shared queue; any idle
// worker pops the next batch and applies it with IngestSink::ApplyNode
// while holding that (session, endpoint)'s stripe lock. The stripe is the
// only serialization a linear sketch needs: cells after a stream are the
// same under any order and any grouping of its updates, so the scheduler
// only has to keep two threads from writing one node's cells at once. A
// hot node's batches spread over every worker instead of pinning to one.
// A session whose sketch is not endpoint-sharded (IngestSink::
// EndpointSharded, e.g. triangles) keys all its batches to ONE stripe, so
// it has one applier at a time however many threads apply.
//
// The producer applies whenever it would otherwise wait. When the shared
// queue is full, Enqueue takes the oldest batch and applies it itself
// (caller-runs backpressure); a drain, after flushing the gutters, applies
// queued batches itself and sleeps only on batches workers already hold.
// Workers and the producer share one apply routine (ApplyItem).
//
// Every work item is tagged with the channel it belongs to, so workers
// dispatch per batch on the session id (one virtual call per batch, not
// per update). Isolation invariant: distinct sessions apply to DISJOINT
// sketch objects, so co-hosted ingestion through a shared pool leaves
// every tenant's sketch byte-identical to that tenant running solo
// (tests/session_test.cc proves it per family).
//
// Threading contract: ALL producer-side calls — Push, Drain, Attach,
// Detach, CaptureEagerCut — come from one thread (or are externally
// serialized). That thread also applies batches inside Push and Drain, as
// above, holding no lock of its own while it does. A drain's help pops
// the queue in order, whichever session a batch belongs to, but it only
// WAITS for that session's work; other sessions' batches keep flowing
// through the same appliers during the barrier.
//
// The locking invariants below are machine-checked: every mutex is a
// capability-annotated gsketch::Mutex (src/core/sync.h), guarded fields
// carry GSKETCH_GUARDED_BY, and clang -Wthread-safety rejects any access
// that cannot prove it holds the lock. Lock order (see sync.h): queue_mu_
// is never held while a batch is applied; a node stripe is held across
// the apply, on a worker or on the producer, and may nest a CowCellArena
// own-stripe under it (the only nesting pair in the codebase); drained_mu_
// is a leaf taken with nothing else held.
#ifndef GRAPHSKETCH_SRC_DRIVER_INGEST_PIPELINE_H_
#define GRAPHSKETCH_SRC_DRIVER_INGEST_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/sync.h"

#include "src/driver/eager_forest.h"
#include "src/driver/gutter.h"
#include "src/graph/stream.h"

namespace gsketch {

/// THE worker-count resolution rule, shared by the pipeline, the CLI, and
/// the benches (each used to hand-roll it): 0 means "use the hardware",
/// i.e. hardware_concurrency with a fallback of 1 for runtimes that
/// report 0; any explicit count is taken as-is.
uint32_t ResolveWorkerCount(uint32_t requested);

/// One endpoint half of a stream token: apply to `endpoint`'s state the
/// update for edge {endpoint, other}.
struct HalfUpdate {
  NodeId endpoint;
  NodeId other;
  int64_t delta;
};

/// The type-erased per-session apply surface. One sink wraps one sketch
/// (AlgIngestSink below is the generic adapter); workers and the
/// producer call it at batch granularity, so the virtual hop is amortized
/// over a whole gutter flush. Implementations own no pipeline
/// state; the pipeline serializes calls per (session, endpoint) with its
/// stripe locks, and calls for distinct endpoints may run concurrently.
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  /// Applies one dense per-node batch (one gutter flush).
  virtual void ApplyNode(const NodeBatch& batch) = 0;

  /// True when batches for distinct endpoints touch disjoint state and
  /// may be applied concurrently (LinearSketch::EndpointSharded). False
  /// keys every batch of the session to one stripe: one applier at a
  /// time, whichever thread it is.
  virtual bool EndpointSharded() const { return true; }
};

/// Detects `bool Alg::EndpointSharded() const`; an Alg without it is
/// endpoint-sharded by the UpdateEndpoint contract.
template <typename Alg, typename = void>
struct AlgHasEndpointSharded : std::false_type {};
template <typename Alg>
struct AlgHasEndpointSharded<
    Alg, std::void_t<decltype(std::declval<const Alg&>().EndpointSharded())>>
    : std::true_type {};

/// The IngestSink over any Alg with `UpdateEndpoint(endpoint, u, v,
/// delta)` touching only `endpoint`'s state: forwards each gutter flush
/// through the Alg's fastest path (ApplyNodeBatch, src/driver/gutter.h).
/// SketchSession wraps its LinearSketch in one.
template <typename Alg>
class AlgIngestSink : public IngestSink {
 public:
  explicit AlgIngestSink(Alg* alg) : alg_(alg) {}

  void ApplyNode(const NodeBatch& batch) override {
    ApplyNodeBatch(alg_, batch);
  }

  bool EndpointSharded() const override {
    if constexpr (AlgHasEndpointSharded<Alg>::value) {
      return alg_->EndpointSharded();
    } else {
      return true;
    }
  }

 private:
  Alg* alg_;
};

/// Tuning knobs for the shared pipeline (per-session knobs live in
/// ChannelOptions).
struct PipelineOptions {
  /// Background worker threads; 0 = hardware concurrency. The producer
  /// thread applies batches too (see file comment), so up to
  /// num_workers + 1 threads apply at once.
  uint32_t num_workers = 1;
  /// Queued batches per worker; the shared queue holds up to
  /// num_workers × this. A Push that finds it full applies the oldest
  /// batch itself (backpressure) instead of waiting.
  size_t max_pending_batches = 8;
};

/// Per-session knobs: the private producer-side state a channel carries.
struct ChannelOptions {
  /// Per-node gutter bytes; values below one entry (kGutterEntryBytes)
  /// clamp to one entry, i.e. every half flushes on its own.
  size_t gutter_bytes = 4096;
  size_t gutter_total_bytes = 0;  ///< global gutter cap; 0 = uncapped
  bool coalesce = true;           ///< fold same-edge gutter entries
  /// Nonzero enables the eager exact-connectivity forest over this many
  /// nodes (src/driver/eager_forest.h), maintained inline at Push.
  NodeId eager_nodes = 0;
  /// Stream tokens already applied before this channel attached (a
  /// checkpoint-restored session resumes counting from its stream_pos).
  uint64_t initial_stream_pos = 0;
};

/// The shared worker pool + queue (see file comment). Channels attach and
/// detach while the pool runs; sessions are identified by the SessionId
/// Attach returns.
class IngestPipeline {
 public:
  using SessionId = uint32_t;

  explicit IngestPipeline(const PipelineOptions& opt = PipelineOptions());

  /// Drains every live channel, then stops and joins the workers.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Registers a session around `*sink` (which must outlive its channel —
  /// i.e. stay valid until Detach or pipeline destruction). Returns the
  /// id all per-session calls take. Producer-side.
  SessionId Attach(IngestSink* sink,
                   const ChannelOptions& copt = ChannelOptions());

  /// Drains the session and removes its channel; the id is retired, not
  /// reused. Producer-side.
  void Detach(SessionId sid) GSKETCH_EXCLUDES(drained_mu_);

  /// Buffers one stream token of session `sid` in the session's gutters
  /// (full gutters flush onto the shared queue; when the queue is full,
  /// this call applies the queue's oldest batch). Producer-side.
  void Push(SessionId sid, NodeId u, NodeId v, int64_t delta);

  /// Flushes the session's gutters, applies queued batches on this
  /// thread while the session is short, then blocks until every update
  /// OF THIS SESSION has been applied; its sketch then reflects the whole
  /// stream pushed so far and may be read safely. Other sessions' items
  /// keep flowing through the workers meanwhile. Producer-side.
  void Drain(SessionId sid) GSKETCH_EXCLUDES(drained_mu_);

  /// Drains every live session. Producer-side.
  void DrainAll() GSKETCH_EXCLUDES(drained_mu_);

  /// Endpoint half-updates applied so far for the session (2 per stream
  /// token; gutter-buffered halves count once flushed and applied). Safe
  /// from any thread.
  uint64_t AppliedHalves(SessionId sid) const;

  /// Stream tokens pushed so far, including a restored channel's initial
  /// position. Producer-side.
  uint64_t StreamUpdates(SessionId sid) const;

  /// Bytes currently buffered in the session's gutters (memory
  /// accounting). Producer-side.
  size_t GutterBufferedBytes(SessionId sid) const;

  /// The session's gutter layer (nullptr for an unknown session).
  const GutterSystem* gutters(SessionId sid) const;

  /// The session's eager forest, when enabled (nullptr otherwise).
  /// Producer-side reads only while ingestion runs.
  const EagerForest* eager_forest(SessionId sid) const;

  /// Captures the session's exact partition at the current push position
  /// (no drain needed; the forest is maintained at Push time). nullptr
  /// when off or invalidated. Producer-side.
  std::shared_ptr<const EagerCut> CaptureEagerCut(SessionId sid);

  uint32_t num_workers() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Half-updates applied by worker `w` so far, across all sessions.
  uint64_t WorkerAppliedHalves(uint32_t w) const {
    // relaxed: monotone stats counter, readers tolerate staleness.
    return worker_applied_[w].load(std::memory_order_relaxed);
  }

  /// Half-updates the producer thread applied itself so far (full-queue
  /// backpressure and drain help), across all sessions. Together with
  /// every WorkerAppliedHalves this sums to all halves applied.
  uint64_t ProducerAppliedHalves() const {
    return WorkerAppliedHalves(producer_slot());
  }

  /// Channels currently attached.
  size_t num_sessions() const { return live_channels_; }

 private:
  // All private per-session state. Work items hold a shared_ptr to their
  // channel so a worker's post-apply counter peek stays valid even if the
  // producer Detaches the (already drained) channel first.
  struct Channel {
    Channel(IngestPipeline* pipeline, SessionId sid, IngestSink* s,
            const ChannelOptions& copt);

    SessionId id;
    IngestSink* sink;
    bool endpoint_sharded;  // sink->EndpointSharded(), cached at Attach
    GutterSystem gutter;                 // producer-side
    std::unique_ptr<EagerForest> eager;  // producer-side (eager mode)
    uint64_t stream_updates = 0;         // producer-side token count
    // Producer-writes-only (documented single-producer contract); atomic
    // because workers peek at it for the drain-signal fast path.
    std::atomic<uint64_t> enqueued_halves{0};
    std::atomic<uint64_t> applied_halves{0};
  };

  // One gutter flush, tagged with its channel.
  struct WorkItem {
    std::shared_ptr<Channel> ch;
    NodeBatch batch;
  };

  Channel* Get(SessionId sid) const;
  void Enqueue(Channel* ch, NodeBatch&& batch)
      GSKETCH_EXCLUDES(queue_mu_, drained_mu_);
  void DrainChannel(Channel* ch) GSKETCH_EXCLUDES(queue_mu_, drained_mu_);
  void WorkerLoop(uint32_t w)
      GSKETCH_EXCLUDES(queue_mu_, drained_mu_);
  // THE apply routine, run by workers and by the producer alike: applies
  // the batch under its stripe, then credits `slot`'s counter and the
  // channel, waking a drain waiter when one may be due.
  void ApplyItem(const WorkItem& item, uint32_t slot)
      GSKETCH_EXCLUDES(queue_mu_, drained_mu_);
  // The producer's counter slot, after the workers' slots.
  uint32_t producer_slot() const { return num_workers(); }

  // Stripe count for the per-(session, endpoint) apply locks: comfortably
  // above any sane worker count so two hot nodes rarely share a stripe,
  // small enough that the mutex array stays cache-resident.
  static constexpr size_t kLockStripes = 64;

  Mutex& Stripe(const Channel& ch, NodeId endpoint) {
    // Distinct sessions hosting the same hot endpoint spread over
    // different stripes (golden-ratio session scatter); a collision only
    // costs contention, never correctness. A session that is not
    // endpoint-sharded keys every batch to one stripe.
    const NodeId key = ch.endpoint_sharded ? endpoint : 0;
    return stripes_[(key + ch.id * 0x9e3779b9u) % kLockStripes];
  }

  size_t queue_capacity_ = 0;  // max_pending_batches × workers
  Mutex queue_mu_;
  CondVar not_empty_;
  std::deque<WorkItem> queue_ GSKETCH_GUARDED_BY(queue_mu_);
  bool stopping_ GSKETCH_GUARDED_BY(queue_mu_) = false;
  // A stripe is held across the sink apply call, so the wrapped sketch's
  // COW own-stripe may be acquired UNDER it (the one sanctioned nesting
  // pair; see src/core/sync.h). Dynamically striped, hence documented
  // rather than GSKETCH_ACQUIRED_BEFORE-annotated — the attribute cannot
  // name a runtime-chosen array element.
  Mutex stripes_[kLockStripes];
  // Indexed by SessionId; detached slots stay null (ids are not reused).
  // Producer-side mutation only; workers never touch this vector (their
  // channel arrives inside the work item).
  std::vector<std::shared_ptr<Channel>> channels_;
  size_t live_channels_ = 0;
  std::vector<std::thread> threads_;
  // Per worker, then the producer's slot (producer_slot()).
  std::unique_ptr<std::atomic<uint64_t>[]> worker_applied_;
  std::atomic<bool> drain_pending_{false};
  // Pure wakeup channel for the drain barrier: the predicate reads the
  // channel ATOMICS, so the mutex guards no fields — it only serializes
  // the Dekker-style wait/notify pairing (see DrainChannel/ApplyItem).
  // Leaf lock: taken with nothing else held, on both sides.
  Mutex drained_mu_;
  CondVar drained_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_INGEST_PIPELINE_H_
