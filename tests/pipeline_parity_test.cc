// Tests for the one ingestion path (src/driver/ingest_pipeline.h): every
// half goes through a per-node gutter, every flush onto one shared queue,
// and any worker applies it under its node's stripe lock.
//
// The load-bearing property is BYTE parity: the pipeline reorders
// updates, groups them into per-node batches claimed by arbitrary
// workers, and applies them in whatever order the workers reach them —
// and because the sketches are linear measurements, none of that may
// change a single sketch byte. The parity loop proves it against plain
// sequential ingestion for every registered family, at one-entry and
// 4 KiB gutters and at one and three workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/driver/ingest_pipeline.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"
#include "src/session/session_manager.h"

namespace gsketch {
namespace {

constexpr NodeId kN = 16;
constexpr uint64_t kSeed = 9;

// A stream with deletions, shuffled into adversarial order.
DynamicGraphStream TestStream(uint64_t seed) {
  Rng rng(seed);
  Graph g = ErdosRenyi(kN, 0.35, seed);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  return s.WithChurn(/*extra=*/s.Size() / 3 + 4, &rng).Shuffled(&rng);
}

std::string Bytes(const LinearSketch& sk) {
  std::string out;
  sk.AppendTo(&out);
  return out;
}

// A fresh session of registry family `alg` on `*mgr`.
SketchSession* OpenSession(SessionManager* mgr, const char* alg, NodeId n,
                           size_t gutter_bytes = 4096) {
  SessionConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = kSeed;
  cfg.gutter_bytes = gutter_bytes;
  std::string error;
  SketchSession* s = mgr->Create(alg, alg, cfg, &error);
  EXPECT_NE(s, nullptr) << error;
  return s;
}

// --------------------------------------------------- parity per family --

// Pipeline ingestion must be byte-identical to plain sequential ingestion
// for every registered family, with one-entry gutters (gutter_bytes = 0
// clamps to one entry, so every half is its own batch) and 4 KiB gutters,
// at multiple worker counts for the endpoint-sharded families.
TEST(PipelineParity, EveryRegisteredFamilyThreadsAndGutters) {
  DynamicGraphStream s = TestStream(5);
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sequential = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) {
      sequential->Update(u, v, d);
    });
    const std::string expected = Bytes(*sequential);

    for (size_t gutter_bytes : {size_t{0}, size_t{4096}}) {
      for (uint32_t threads : {1u, 3u}) {
        if (threads > 1 && !info.endpoint_sharded) continue;
        SessionManager mgr(PipelineOptions{threads});
        SketchSession* piped = OpenSession(&mgr, info.name, kN, gutter_bytes);
        ASSERT_NE(piped, nullptr);
        for (const auto& e : s.Updates()) piped->Push(e.u, e.v, e.delta);
        piped->Drain();
        EXPECT_EQ(piped->applied_halves(), 2 * s.Size());
        EXPECT_EQ(Bytes(piped->sketch()), expected)
            << "gutter=" << gutter_bytes << "B, threads=" << threads;
      }
    }
  }
}

// ------------------------------------------------ hot-spot distribution --

// A hot-spot stream (every token incident to node 0) would pin half the
// stream to ONE worker if workers owned nodes. The shared queue must
// spread it: every worker applies work, and no worker applies everything.
TEST(PipelineWorkSharing, HotSpotStreamReachesEveryWorker) {
  constexpr NodeId n = 64;
  constexpr uint32_t kWorkers = 3;
  DynamicGraphStream s(n);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    s.Push(0, 1 + rng.Below(n - 1), +1);
  }

  auto sequential = FindAlg("connectivity")->make(n, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    sequential->Update(u, v, d);
  });
  const std::string expected = Bytes(*sequential);

  SessionManager mgr(PipelineOptions{kWorkers});
  // Default gutters: node 0's gutter fills and flushes dozens of times
  // mid-stream, so the shared queue has real work to distribute; the
  // cold endpoints' gutters flush at the final drain.
  SketchSession* piped = OpenSession(&mgr, "connectivity", n);
  ASSERT_NE(piped, nullptr);
  for (const auto& e : s.Updates()) piped->Push(e.u, e.v, e.delta);
  // The producer applies batches only when the queue is full or inside a
  // drain, so on a CPU-starved host it could apply the rest before an
  // idle worker is scheduled. Before draining, give the workers time to
  // take the queued hot-node batches (only node 0's gutter fills
  // mid-stream): the check below is about routing, not about which
  // thread the OS runs first.
  ASSERT_EQ(mgr.pipeline().num_workers(), kWorkers);
  auto some_worker_idle = [&] {
    for (uint32_t w = 0; w < kWorkers; ++w) {
      if (mgr.pipeline().WorkerAppliedHalves(w) == 0) return true;
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (some_worker_idle() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  piped->Drain();
  uint64_t per_worker[kWorkers];
  // The producer applies too (full queue, drain help); its slot closes
  // the exact account.
  uint64_t total = mgr.pipeline().ProducerAppliedHalves();
  for (uint32_t w = 0; w < kWorkers; ++w) {
    per_worker[w] = mgr.pipeline().WorkerAppliedHalves(w);
    total += per_worker[w];
  }
  EXPECT_EQ(total, 2 * s.Size());
  EXPECT_EQ(Bytes(piped->sketch()), expected);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_GT(per_worker[w], 0u) << "worker " << w << " never applied work "
                                 << "(hot spot pinned to one worker?)";
    EXPECT_LT(per_worker[w], 2 * s.Size())
        << "worker " << w << " applied the whole stream alone";
  }
}

// ----------------------------------------------- drain interleavings --

// Repeated mid-stream drains while gutters are flushing into the busy
// shared queue: the exact interleaving where Drain's condvar predicate races
// worker-side applied_halves_ bumps and the workers' advisory peek at
// enqueued_halves_. Run under TSan in CI; the assertions also prove every
// drain is a consistent cut (all pushed halves applied, bytes reproducible).
TEST(PipelineDrain, DrainUnderGutterFlushInterleaving) {
  constexpr NodeId n = 32;
  DynamicGraphStream s(n);
  Rng rng(23);
  for (int i = 0; i < 6000; ++i) {
    NodeId u = rng.Below(n), v = rng.Below(n);
    if (u == v) v = (v + 1) % n;
    s.Push(u, v, rng.Below(4) == 0 ? -1 : +1);
  }

  PipelineOptions popt;
  popt.num_workers = 3;
  popt.max_pending_batches = 2;  // tight queue: producer blocks often
  SessionManager mgr(popt);
  // Tiny gutters: flush storms mid-push.
  SketchSession* session = OpenSession(&mgr, "connectivity", n, 256);
  ASSERT_NE(session, nullptr);
  uint64_t pushed = 0;
  for (const auto& e : s.Updates()) {
    session->Push(e.u, e.v, e.delta);
    if (++pushed % 512 == 0) {
      session->Drain();
      EXPECT_EQ(session->applied_halves(), 2 * pushed);
    }
  }
  session->Drain();
  EXPECT_EQ(session->applied_halves(), 2 * s.Size());
}

// ------------------------------------------------- producer applies --

// Forwards every batch to a registry sketch and records who applied it:
// how many batches ran on the producer (test) thread, and the most
// ApplyNode calls ever in flight at once.
class RecordingSink : public IngestSink {
 public:
  explicit RecordingSink(LinearSketch* sk)
      : sk_(sk), producer_(std::this_thread::get_id()) {}

  void ApplyNode(const NodeBatch& batch) override {
    // relaxed throughout: test-only tallies read after the pipeline is
    // drained (the drain barrier orders them).
    const int now = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
    int seen = max_in_flight_.load(std::memory_order_relaxed);
    while (now > seen && !max_in_flight_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
    if (std::this_thread::get_id() == producer_) {
      producer_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    ApplyNodeBatch(sk_, batch);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

  bool EndpointSharded() const override { return sk_->EndpointSharded(); }

  uint64_t producer_batches() const {
    return producer_batches_.load(std::memory_order_relaxed);
  }
  int max_in_flight() const {
    return max_in_flight_.load(std::memory_order_relaxed);
  }

 private:
  LinearSketch* sk_;
  std::thread::id producer_;
  std::atomic<uint64_t> producer_batches_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

// Ingests `s` into a fresh `alg` sketch through a one-worker pipeline
// whose queue holds ONE batch, with one-entry gutters: nearly every Push
// finds the queue full, so the producer applies batches itself.
// `*sink` receives the recording sink.
std::unique_ptr<LinearSketch> IngestThroughTightQueue(
    const char* alg, const DynamicGraphStream& s,
    std::unique_ptr<RecordingSink>* sink) {
  auto sk = FindAlg(alg)->make(kN, AlgOptions{}, kSeed);
  *sink = std::make_unique<RecordingSink>(sk.get());
  PipelineOptions popt;
  popt.num_workers = 1;
  popt.max_pending_batches = 1;
  IngestPipeline pipe(popt);
  ChannelOptions copt;
  copt.gutter_bytes = 0;  // one entry: every half is its own batch
  copt.coalesce = sk->CoalesceSafe();
  const auto sid = pipe.Attach(sink->get(), copt);
  for (const auto& e : s.Updates()) pipe.Push(sid, e.u, e.v, e.delta);
  pipe.Drain(sid);
  EXPECT_EQ(pipe.AppliedHalves(sid), 2 * s.Size());
  const uint64_t total =
      pipe.ProducerAppliedHalves() + pipe.WorkerAppliedHalves(0);
  EXPECT_EQ(total, 2 * s.Size());
  EXPECT_GT(pipe.ProducerAppliedHalves(), 0u);
  return sk;
}

// A full queue makes the producer apply the oldest batch itself instead
// of sleeping; the sketch must still be byte-identical to sequential
// ingestion.
TEST(PipelineProducerApplies, FullQueueRunsBatchesOnProducer) {
  const DynamicGraphStream s = TestStream(31);
  auto sequential = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    sequential->Update(u, v, d);
  });
  std::unique_ptr<RecordingSink> sink;
  auto piped = IngestThroughTightQueue("connectivity", s, &sink);
  EXPECT_GT(sink->producer_batches(), 0u);
  EXPECT_EQ(Bytes(*piped), Bytes(*sequential));
}

// A sketch that is not endpoint-sharded (triangles) must have ONE applier
// at a time even while the producer helps the worker: all its batches
// share one stripe, so ApplyNode never runs twice at once.
TEST(PipelineProducerApplies, NonShardedSketchHasOneApplierAtATime) {
  const DynamicGraphStream s = TestStream(37);
  auto sequential = FindAlg("triangles")->make(kN, AlgOptions{}, kSeed);
  ASSERT_FALSE(sequential->EndpointSharded());
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    sequential->Update(u, v, d);
  });
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    std::unique_ptr<RecordingSink> sink;
    auto piped = IngestThroughTightQueue("triangles", s, &sink);
    EXPECT_GT(sink->producer_batches(), 0u);
    EXPECT_EQ(sink->max_in_flight(), 1);
    EXPECT_EQ(Bytes(*piped), Bytes(*sequential));
  }
}

// ------------------------------------------------- resolved workers --

// PipelineOptions::num_workers == 0 resolves through ResolveWorkerCount —
// THE shared resolution rule (pipeline, CLI, benches) — and the pipeline
// must REPORT the resolved count (benches and the CLI print it).
TEST(PipelineDriver, ZeroWorkersReportResolvedCount) {
  SessionManager mgr(PipelineOptions{0});
  EXPECT_EQ(mgr.pipeline().num_workers(), ResolveWorkerCount(0));
}

}  // namespace
}  // namespace gsketch
