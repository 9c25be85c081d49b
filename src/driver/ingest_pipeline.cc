#include "src/driver/ingest_pipeline.h"

#include <algorithm>
#include <utility>

namespace gsketch {

uint32_t ResolveWorkerCount(uint32_t requested) {
  if (requested != 0) return requested;
  uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

IngestPipeline::IngestPipeline(const PipelineOptions& opt) {
  const uint32_t workers = ResolveWorkerCount(opt.num_workers);
  queue_capacity_ = std::max<size_t>(opt.max_pending_batches, 1) * workers;
  // One slot per worker plus the producer's slot at index `workers`.
  worker_applied_ = std::make_unique<std::atomic<uint64_t>[]>(workers + 1);
  for (uint32_t w = 0; w <= workers; ++w) {
    // relaxed: workers have not started yet, the thread construction
    // below is the synchronization point for these initial values.
    worker_applied_[w].store(0, std::memory_order_relaxed);
  }
  for (uint32_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

IngestPipeline::~IngestPipeline() {
  DrainAll();
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
    not_empty_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

IngestPipeline::Channel::Channel(IngestPipeline* pipeline, SessionId sid,
                                 IngestSink* s, const ChannelOptions& copt)
    : id(sid),
      sink(s),
      endpoint_sharded(s->EndpointSharded()),
      gutter(GutterOptions{copt.gutter_bytes, copt.gutter_total_bytes,
                           copt.coalesce},
             [pipeline, this](NodeBatch&& batch) {
               pipeline->Enqueue(this, std::move(batch));
             }),
      stream_updates(copt.initial_stream_pos) {
  if (copt.eager_nodes > 0) {
    eager = std::make_unique<EagerForest>(copt.eager_nodes);
  }
}

IngestPipeline::SessionId IngestPipeline::Attach(
    IngestSink* sink, const ChannelOptions& copt) {
  const auto sid = static_cast<SessionId>(channels_.size());
  channels_.push_back(std::make_shared<Channel>(this, sid, sink, copt));
  ++live_channels_;
  return sid;
}

void IngestPipeline::Detach(SessionId sid) {
  Channel* ch = Get(sid);
  if (ch == nullptr) return;
  DrainChannel(ch);
  channels_[sid].reset();  // in-flight WorkItems keep the counters alive
  --live_channels_;
}

IngestPipeline::Channel* IngestPipeline::Get(SessionId sid) const {
  return sid < channels_.size() ? channels_[sid].get() : nullptr;
}

void IngestPipeline::Push(SessionId sid, NodeId u, NodeId v,
                          int64_t delta) {
  Channel* ch = Get(sid);
  ++ch->stream_updates;
  if (ch->eager != nullptr) ch->eager->Apply(u, v, delta);
  ch->gutter.Push(u, v, delta);
}

void IngestPipeline::Drain(SessionId sid) {
  Channel* ch = Get(sid);
  if (ch != nullptr) DrainChannel(ch);
}

void IngestPipeline::DrainAll() {
  for (const auto& ch : channels_) {
    if (ch != nullptr) DrainChannel(ch.get());
  }
}

void IngestPipeline::DrainChannel(Channel* ch) {
  ch->gutter.FlushAll();
  // `enqueued_halves` is written only by this (producer) thread, so the
  // predicate's load always sees the final enqueue total; the atomic
  // exists for the workers' cross-thread peek in ApplyItem.
  const uint64_t target =
      ch->enqueued_halves.load(std::memory_order_relaxed);
  // Help instead of sleeping: while the channel is short of its target
  // and batches are still queued, apply them on this thread (any
  // session's; each one applied here is one a worker need not reach).
  // relaxed: this read only decides whether to keep helping; the exact
  // check is the seq_cst wait below.
  while (ch->applied_halves.load(std::memory_order_relaxed) != target) {
    WorkItem item;
    {
      MutexLock lock(queue_mu_);
      if (queue_.empty()) break;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    ApplyItem(item, producer_slot());
  }
  // Only batches already taken by workers remain in flight; wait for them.
  MutexLock lock(drained_mu_);
  // Announce the drain BEFORE the first predicate check. Workers check
  // drain_pending_ after bumping applied_halves; both sides use seq_cst,
  // so a worker that read drain_pending_ == false made its bump visible
  // to a predicate check that runs after this store (Dekker-style: no
  // lost wakeup, see ApplyItem).
  drain_pending_.store(true, std::memory_order_seq_cst);
  // seq_cst: the Dekker pairing above — this load must be in the single
  // total order with the workers' fetch_add / drain_pending_ load.
  while (ch->applied_halves.load(std::memory_order_seq_cst) != target) {
    drained_.Wait(drained_mu_);
  }
  drain_pending_.store(false, std::memory_order_seq_cst);
}

uint64_t IngestPipeline::AppliedHalves(SessionId sid) const {
  const Channel* ch = Get(sid);
  // relaxed: monotone progress peek for pollers; exactness comes from
  // Drain's seq_cst handshake, not from this read.
  return ch == nullptr
             ? 0
             : ch->applied_halves.load(std::memory_order_relaxed);
}

uint64_t IngestPipeline::StreamUpdates(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch == nullptr ? 0 : ch->stream_updates;
}

size_t IngestPipeline::GutterBufferedBytes(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch == nullptr
             ? 0
             : ch->gutter.buffered_entries() * kGutterEntryBytes;
}

const GutterSystem* IngestPipeline::gutters(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch != nullptr ? &ch->gutter : nullptr;
}

const EagerForest* IngestPipeline::eager_forest(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch != nullptr ? ch->eager.get() : nullptr;
}

std::shared_ptr<const EagerCut> IngestPipeline::CaptureEagerCut(
    SessionId sid) {
  Channel* ch = Get(sid);
  return ch != nullptr && ch->eager != nullptr ? ch->eager->Capture()
                                               : nullptr;
}

void IngestPipeline::Enqueue(Channel* ch, NodeBatch&& batch) {
  // relaxed: producer-only writer (single-producer contract); workers
  // re-read it seq_cst in the drain pairing, producers see it plain.
  ch->enqueued_halves.fetch_add(batch.halves, std::memory_order_relaxed);
  WorkItem oldest;
  {
    MutexLock lock(queue_mu_);
    if (queue_.size() >= queue_capacity_) {
      // Caller-runs backpressure: rather than wait for a worker to free
      // a slot, take the oldest batch and apply it on this thread below.
      oldest = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_.push_back(WorkItem{channels_[ch->id], std::move(batch)});
    not_empty_.NotifyOne();
  }
  if (oldest.ch != nullptr) ApplyItem(oldest, producer_slot());
}

void IngestPipeline::WorkerLoop(uint32_t w) {
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && queue_.empty()) not_empty_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stopping and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    ApplyItem(item, w);
  }
}

void IngestPipeline::ApplyItem(const WorkItem& item, uint32_t slot) {
  Channel& ch = *item.ch;
  {
    // Held across the sink call: the sketch's COW arena may take its
    // own-stripe under this stripe (the sanctioned nesting, sync.h).
    MutexLock lock(Stripe(ch, item.batch.endpoint));
    ch.sink->ApplyNode(item.batch);
  }
  const uint64_t applied = item.batch.halves;
  // relaxed: single-writer stats counter (this slot's thread), staleness-
  // tolerant readers.
  worker_applied_[slot].fetch_add(applied, std::memory_order_relaxed);
  const uint64_t now_applied =
      ch.applied_halves.fetch_add(applied, std::memory_order_seq_cst) +
      applied;
  // Only touch the drain mutex when someone can be waiting: a drain is
  // pending, or this bump reached the channel's enqueue total (the
  // peek is advisory; the producer may be mid-flush). Taking
  // drained_mu_ after EVERY item would serialize all appliers on one
  // mutex that only matters at drain time. No lost wakeup: Drain sets
  // drain_pending_ (seq_cst) before its first predicate check, so if the
  // load below reads false, this fetch_add is ordered before that check
  // and the predicate already sees the final count. On the producer's own
  // applies no drain is pending, and a spurious notify is harmless.
  if (drain_pending_.load(std::memory_order_seq_cst) ||
      now_applied == ch.enqueued_halves.load(std::memory_order_seq_cst)) {
    MutexLock lock(drained_mu_);
    drained_.NotifyAll();
  }
}

}  // namespace gsketch
