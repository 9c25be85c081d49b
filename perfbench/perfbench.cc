// The repository benchmark: two workloads driven through the public
// session front door, measured end to end (tracing off) or layer by layer
// (tracing on). perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the workloads, the metrics and the layer map.
//
//   perfbench --workload ingest-hotspot --seed 1 --seconds 50 --trace 0
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A human-readable report goes to stderr, and a result record with the
// workload shape and environment goes to <out>/results/.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/core/sketch_registry.h"
#include "src/driver/binary_stream.h"
#include "src/driver/gutter.h"
#include "src/driver/ingest_pipeline.h"
#include "src/driver/snapshot.h"
#include "src/graph/edge_id.h"
#include "src/graph/graph.h"
#include "src/graph/stoer_wagner.h"
#include "src/graph/union_find.h"
#include "src/hash/splitmix.h"
#include "src/session/session_manager.h"
#include "src/sketch/cell_kernels.h"
#include "src/workload/stream_generator.h"

namespace gs = gsketch;
using perfbench::NowNs;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------ workloads --

struct Workload {
  const char* name;
  const char* profile;     // FindWorkloadProfile name
  gs::NodeId n;
  size_t tokens;
  const char* family;      // registry family
  uint32_t k;              // kconnect witness strength (0 = family default)
  uint64_t snapshot_every;  // Publish every this many tokens; 0 = final only
  uint32_t query_every;     // query every this many snapshots
  const char* query;        // the query pinned to those snapshots
  size_t replay_tokens;     // offline gutter / ApplyBatch / finger prefix
  size_t plain_replay_tokens;  // offline UpdateEndpoint prefix
};

const Workload kWorkloads[] = {
    {"ingest-hotspot", "hotspot", 1024, 3000000, "connectivity", 0, 0, 1,
     "components", 1200000, 100000},
    {"serve-kconnect", "uniform", 512, 960000, "kconnect", 3, 20000, 4,
     "kconnected", 400000, 50000},
};

// The only two knobs the benchmark sets (README: "Thread budget").
constexpr uint32_t kWorkers = 2;
constexpr size_t kGutterBytes = 4096;

constexpr uint64_t kDefaultSeed = 1;        // workload seed when not given
constexpr uint64_t kSketchSeed = 0x5eed;    // sketch hash seed, fixed
constexpr size_t kReadChunk = 8192;         // tokens per ReadBatch
constexpr int kMinSetups = 3;               // setup_s is a median of these
// Decodes per pass after ingestion on a workload without in-stream
// snapshots: untimed warm-up, then timed.
constexpr int kDecodeWarmup = 16;
constexpr int kDecodesAfterIngest = 48;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ------------------------------------------------------------- helpers --

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Peak RSS of the current phase: free heap left over from earlier passes
// goes back to the kernel, then clear_refs "5" resets the kernel's
// high-water mark, so each pass reports its own peak from the same
// starting point. Where the reset is not permitted the process-lifetime
// peak is the fallback.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<gs::EdgeUpdate> ReadPrefix(const std::string& path,
                                       size_t limit) {
  gs::BinaryStreamReader reader(path);
  std::vector<gs::EdgeUpdate> out;
  out.reserve(limit);
  while (out.size() < limit && reader.ReadBatch(limit - out.size(), &out)) {
  }
  return out;
}

gs::AlgOptions OptionsFor(const Workload& w) {
  gs::AlgOptions opt;
  if (w.k != 0) opt.k = w.k;
  return opt;
}

// ------------------------------------------------------ exact answers --

// Exact answers at every stream position a query is pinned to, from the
// references in src/graph: the union-find partition for `components`,
// Stoer-Wagner min cut >= k for `kconnected`. Connectivity answers depend
// only on edge support, so both run on the support graph.
std::map<uint64_t, std::string> ExactAnswers(
    const Workload& w, const std::string& gskb,
    const std::vector<uint64_t>& positions) {
  std::map<uint64_t, std::string> out;
  gs::BinaryStreamReader reader(gskb);
  std::unordered_map<uint64_t, int64_t> mult;
  gs::Graph support(w.n);
  const bool kconnect = std::strcmp(w.query, "kconnected") == 0;
  std::vector<gs::EdgeUpdate> chunk;
  uint64_t pos = 0;
  size_t next = 0;
  while (next < positions.size()) {
    chunk.clear();
    const uint64_t want =
        std::min<uint64_t>(kReadChunk, positions[next] - pos);
    if (reader.ReadBatch(want, &chunk) == 0) break;
    for (const gs::EdgeUpdate& e : chunk) {
      const gs::NodeId a = std::min(e.u, e.v), b = std::max(e.u, e.v);
      int64_t& m = mult[gs::EdgeId(a, b)];
      const bool was = m != 0;
      m += e.delta;
      if (kconnect && was != (m != 0)) support.AddEdge(a, b, was ? -1 : 1);
    }
    pos += chunk.size();
    if (pos != positions[next]) continue;
    if (kconnect) {
      const double lambda = gs::StoerWagnerMinCut(support).value;
      out[pos] = lambda >= static_cast<double>(w.k) ? "yes" : "no";
    } else {
      gs::UnionFind uf(w.n);
      for (const auto& [id, m] : mult) {
        if (m == 0) continue;
        const auto ends = gs::EdgeEndpoints(id);
        uf.Union(ends[0], ends[1]);
      }
      out[pos] = std::to_string(uf.NumComponents());
    }
    ++next;
  }
  return out;
}

// -------------------------------------------------------- query thread --

struct QueryAnswer {
  uint64_t pos = 0;
  bool ok = false;
  std::string text;
  double wait_ms = 0;    // submission -> decode start
  double decode_ms = 0;  // decode self time
};

// The benchmark-owned query thread: decodes pinned snapshots in
// submission order while the producer keeps ingesting.
class QueryThread {
 public:
  QueryThread(Tracer* tracer, const char* query)
      : tracer_(tracer), query_(query), thread_([this] { Loop(); }) {}
  ~QueryThread() { Finish(); }
  QueryThread(const QueryThread&) = delete;
  QueryThread& operator=(const QueryThread&) = delete;

  void Submit(std::shared_ptr<const gs::SketchSnapshot> snap, int32_t parent,
              uint64_t request) {
    Job job{std::move(snap), NowNs(), parent, request};
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Answers every submitted query, stops the thread, and returns the
  /// answers in submission order. Idempotent.
  std::vector<QueryAnswer> Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return answers_;
  }

 private:
  struct Job {
    std::shared_ptr<const gs::SketchSnapshot> snap;
    int64_t submit_ns;
    int32_t parent;
    uint64_t request;
  };

  void Loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      QueryAnswer a;
      a.pos = job.snap->stream_pos;
      std::string error;
      const int64_t start = NowNs();
      a.ok = job.snap->sketch->Query(query_, &a.text, &error);
      const int64_t end = NowNs();
      job.snap.reset();  // release the snapshot's COW pages
      a.wait_ms = static_cast<double>(start - job.submit_ns) / 1e6;
      a.decode_ms = static_cast<double>(end - start) / 1e6;
      const int32_t q = tracer_->Add("query", job.submit_ns, end, job.parent,
                                     job.request, 1);
      tracer_->Add("core.query", start, end, q, job.request, 1);
      answers_.push_back(std::move(a));
    }
  }

  Tracer* tracer_;
  const std::string query_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stopping_ = false;
  std::vector<QueryAnswer> answers_;  // query thread until joined
  std::thread thread_;                // last: runs Loop over the above
};

// --------------------------------------------------------------- setup --

struct SetupTimes {
  double generate_s = 0;
  double write_s = 0;
  double create_ms = 0;
  double total_s = 0;
};

struct Setup {
  std::unique_ptr<gs::SessionManager> manager;
  gs::SketchSession* session = nullptr;
  SetupTimes times;
};

// Generates the workload stream, writes it as GSKB, and creates the
// session: everything a user does before the first Push.
bool DoSetup(const Workload& w, uint64_t seed, const std::string& gskb,
             Tracer* tracer, uint64_t request, Setup* out,
             std::string* error) {
  const int64_t t0 = NowNs();
  Scope root(tracer, "setup", -1, request);
  {
    gs::DynamicGraphStream stream;
    {
      Scope sp(tracer, "workload.generate", root.id(), request);
      stream = gs::FindWorkloadProfile(w.profile)->generate(w.n, w.tokens,
                                                            seed);
    }
    const int64_t t1 = NowNs();
    {
      Scope sp(tracer, "driver.binary_stream.write", root.id(), request);
      if (!gs::WriteBinaryStream(gskb, stream)) {
        *error = "cannot write " + gskb;
        return false;
      }
    }
    const int64_t t2 = NowNs();
    out->times.generate_s = static_cast<double>(t1 - t0) / 1e9;
    out->times.write_s = static_cast<double>(t2 - t1) / 1e9;
  }
  const int64_t t3 = NowNs();
  {
    Scope sp(tracer, "session.create", root.id(), request);
    gs::PipelineOptions popt;
    popt.num_workers = kWorkers;
    out->manager = std::make_unique<gs::SessionManager>(popt);
    gs::SessionConfig cfg;
    cfg.num_nodes = w.n;
    cfg.seed = kSketchSeed;
    cfg.options = OptionsFor(w);
    cfg.gutter_bytes = kGutterBytes;
    out->session = out->manager->Create("bench", w.family, cfg, error);
  }
  const int64_t t4 = NowNs();
  out->times.create_ms = static_cast<double>(t4 - t3) / 1e6;
  out->times.total_s = static_cast<double>(t4 - t0) / 1e9;
  return out->session != nullptr;
}

// ---------------------------------------------------------------- pass --

struct Pass {
  double ingest_s = 0;   // producer loop start -> final drain returns
  double drain_ms = 0;   // the final drain (inside the final Publish)
  double result_ms = 0;  // last Push -> verified final answer
  double final_publish_ms = 0;  // the whole final Publish call
  std::vector<double> snapshot_ms, snap_drain_ms, snap_publish_ms;
  std::vector<QueryAnswer> answers;  // from the query thread
  std::vector<QueryAnswer> served;   // decodes after ingestion
  double memory_mib = 0;
  double peak_rss_mib = 0;
  size_t cells = 0;
  uint64_t flushes = 0;
  uint64_t coalesced = 0;
  std::vector<uint64_t> worker_halves;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t request = 0;
};

// One closed-loop ingest of the whole GSKB file into a fresh session,
// with Publish at fixed stream positions and the pinned queries decoded
// on the query thread, then the final answer verified. Publish is the
// session's drain barrier plus a COW fork (SketchSession::Publish), so
// the final Publish after the last Push is also the final drain that
// ends ingestion.
Pass RunPass(const Workload& w, const Setup& setup, const std::string& gskb,
             Tracer* tracer, uint64_t request, uint64_t* next_query_request) {
  Pass p;
  p.request = request;
  gs::SketchSession* s = setup.session;
  ResetPeakRss();
  gs::BinaryStreamReader reader(gskb);
  QueryThread queries(tracer, w.query);
  const int32_t root = tracer->Begin("pass", -1, request, 0);
  uint64_t snapshots = 0;
  auto publish = [&](bool final) {
    gs::SnapshotTiming timing;
    const int64_t a = NowNs();
    const int32_t span = tracer->Begin("session.publish", root, request, 0);
    auto snap = s->Publish(&timing);
    tracer->End(span);
    const double ms = static_cast<double>(NowNs() - a) / 1e6;
    p.snapshot_ms.push_back(ms);
    p.snap_drain_ms.push_back(timing.drain_ms);
    p.snap_publish_ms.push_back(timing.publish_ms);
    if (final) p.final_publish_ms = ms;
    ++snapshots;
    if (final || snapshots % w.query_every == 0) {
      queries.Submit(std::move(snap), span, (*next_query_request)++);
    }
    return timing;
  };

  std::vector<gs::EdgeUpdate> chunk;
  chunk.reserve(kReadChunk);
  uint64_t pos = 0;
  const int64_t t_start = NowNs();
  while (pos < w.tokens) {
    uint64_t want = kReadChunk;
    if (w.snapshot_every != 0) {
      want = std::min(want, w.snapshot_every - pos % w.snapshot_every);
    }
    chunk.clear();
    size_t got = 0;
    {
      Scope sp(tracer, "driver.binary_stream.read", root, request);
      got = reader.ReadBatch(want, &chunk);
    }
    if (got == 0) break;
    {
      Scope sp(tracer, "session.push", root, request);
      for (const gs::EdgeUpdate& e : chunk) s->Push(e.u, e.v, e.delta);
    }
    pos += got;
    if (w.snapshot_every != 0 && pos % w.snapshot_every == 0 &&
        pos < w.tokens) {
      publish(false);
    }
  }
  const int64_t t_last_push = NowNs();
  p.drain_ms = publish(true).drain_ms;
  p.ingest_s = static_cast<double>(t_last_push - t_start) / 1e9 +
               p.drain_ms / 1e3;
  p.memory_mib =
      static_cast<double>(setup.manager->TotalMemoryBytes()) / 1048576.0;
  p.answers = queries.Finish();
  p.result_ms = static_cast<double>(NowNs() - t_last_push) / 1e6;

  // A workload without in-stream snapshots then serves the ingested
  // sketch: a closed loop of decodes of one snapshot of the drained
  // session. These are most of the samples of its query_ms_p50. The
  // first decodes warm the caches and take up to 30% longer; they are
  // not timed.
  if (w.snapshot_every == 0) {
    const auto snap = s->Publish();
    for (int i = 0; i < kDecodeWarmup; ++i) {
      std::string text, error;
      snap->sketch->Query(w.query, &text, &error);
    }
    for (int i = 0; i < kDecodesAfterIngest; ++i) {
      QueryAnswer q;
      q.pos = snap->stream_pos;
      std::string error;
      const int64_t a = NowNs();
      q.ok = snap->sketch->Query(w.query, &q.text, &error);
      q.decode_ms = static_cast<double>(NowNs() - a) / 1e6;
      p.served.push_back(std::move(q));
    }
  }

  // Every token read and applied exactly twice (both endpoint halves).
  // The answers are checked by CheckAnswers once the timed passes end.
  p.attempted += 1;
  if (!reader.ok() || pos != w.tokens || s->stream_pos() != w.tokens ||
      s->applied_halves() != 2 * static_cast<uint64_t>(w.tokens)) {
    p.failed += 1;
    std::fprintf(stderr,
                 "perfbench: accounting mismatch: read %llu of %zu tokens, "
                 "stream_pos %llu, applied halves %llu (%s)\n",
                 static_cast<unsigned long long>(pos), w.tokens,
                 static_cast<unsigned long long>(s->stream_pos()),
                 static_cast<unsigned long long>(s->applied_halves()),
                 reader.error().c_str());
  }
  tracer->End(root);

  p.peak_rss_mib = PeakRssMib();
  p.cells = s->sketch().CellCount();
  if (const gs::GutterSystem* g = s->gutters()) {
    p.flushes = g->flushes();
    p.coalesced = g->coalesced_halves();
  }
  const gs::IngestPipeline& pipe = setup.manager->pipeline();
  for (uint32_t i = 0; i < pipe.num_workers(); ++i) {
    p.worker_halves.push_back(pipe.WorkerAppliedHalves(i));
  }
  return p;
}

// Every query latency of a pass: submission to answer for the queries
// pinned to snapshots, the decode alone for those after ingestion.
std::vector<double> QueryMs(const Pass& p) {
  std::vector<double> out;
  for (const QueryAnswer& a : p.answers) out.push_back(a.wait_ms + a.decode_ms);
  for (const QueryAnswer& a : p.served) out.push_back(a.decode_ms);
  return out;
}

// Compares every answer of a pass with the exact one; a query error or a
// mismatch is one failure.
void CheckAnswers(const Workload& w,
                  const std::map<uint64_t, std::string>& exact, Pass* p) {
  auto check = [&](const QueryAnswer& a) {
    p->attempted += 1;
    auto it = exact.find(a.pos);
    if (!a.ok || it == exact.end() || it->second != a.text) {
      p->failed += 1;
      std::fprintf(stderr, "perfbench: wrong answer @%llu %s => '%s' "
                   "(exact '%s')\n",
                   static_cast<unsigned long long>(a.pos), w.query,
                   a.text.c_str(),
                   it == exact.end() ? "?" : it->second.c_str());
    }
  };
  for (const QueryAnswer& a : p->answers) check(a);
  for (const QueryAnswer& a : p->served) check(a);
}

// ------------------------------------------------------ offline rungs --

// Single-thread replays of a stream prefix, one layer at a time. They
// bypass the pipeline, so their rates are per-core costs, not shares of
// the end-to-end wall time.
struct Rungs {
  double finger_ns_per_id = 0;
  double gutter_push_ns_per_token = 0;
  double apply_batch_ns_per_half = 0;
  double update_endpoint_ns_per_half = 0;
  double update_endpoint_grouped_ns_per_half = 0;
};

Rungs MeasureRungs(const Workload& w, const std::string& gskb) {
  Rungs r;
  const std::vector<gs::EdgeUpdate> prefix = ReadPrefix(gskb, w.replay_tokens);

  // sketch: the fingerprint kernel over the prefix's edge ids.
  {
    std::vector<uint64_t> ids;
    ids.reserve(prefix.size());
    for (const gs::EdgeUpdate& e : prefix) {
      ids.push_back(gs::EdgeId(std::min(e.u, e.v), std::max(e.u, e.v)));
    }
    constexpr size_t kChunk = 256;  // the L0 scatter's hash chunk
    uint64_t out[kChunk];
    uint64_t hashed = 0;
    const uint64_t base = gs::Mix64(kSketchSeed, 0xf17e);
    const int64_t t0 = NowNs();
    int64_t t1 = t0;
    while (t1 - t0 < 200000000) {  // >= 0.2 s of kernel time
      for (size_t i = 0; i < ids.size(); i += kChunk) {
        const size_t c = std::min(kChunk, ids.size() - i);
        gs::FingerBatch(base, ids.data() + i, c, out);
      }
      hashed += ids.size();
      t1 = NowNs();
    }
    r.finger_ns_per_id = static_cast<double>(t1 - t0) /
                         static_cast<double>(hashed);
  }

  gs::GutterOptions gopt;
  gopt.bytes_per_gutter = kGutterBytes;
  // driver: gutter buffering alone, flushes discarded.
  {
    gs::GutterSystem gutters(gopt, [](gs::NodeBatch&&) {});
    const int64_t t0 = NowNs();
    for (const gs::EdgeUpdate& e : prefix) gutters.Push(e.u, e.v, e.delta);
    gutters.FlushAll();
    r.gutter_push_ns_per_token = static_cast<double>(NowNs() - t0) /
                                 static_cast<double>(prefix.size());
  }
  const gs::AlgInfo* info = gs::FindAlg(w.family);
  // core: the workload's own gutter batches applied to a fresh sketch.
  {
    auto sketch = info->make(w.n, OptionsFor(w), kSketchSeed);
    int64_t apply_ns = 0;
    uint64_t halves = 0;
    gs::GutterSystem gutters(gopt, [&](gs::NodeBatch&& b) {
      const int64_t t0 = NowNs();
      sketch->ApplyBatch(
          b.endpoint, gs::Span<const gs::NodeId>(b.others.data(),
                                                 b.others.size()),
          gs::Span<const int64_t>(b.deltas.data(), b.deltas.size()));
      apply_ns += NowNs() - t0;
      halves += b.halves;
    });
    for (const gs::EdgeUpdate& e : prefix) gutters.Push(e.u, e.v, e.delta);
    gutters.FlushAll();
    r.apply_batch_ns_per_half =
        static_cast<double>(apply_ns) / static_cast<double>(halves);
  }
  // core: the plain per-half rung the gutter path bypasses, first in
  // stream order, then the same halves grouped by endpoint. Equal work,
  // different locality: the gap between the two is the cost of missing
  // the cache, and the gap to ApplyBatch the rest of what batching saves.
  const size_t count = std::min(prefix.size(), w.plain_replay_tokens);
  std::vector<gs::HalfUpdate> halves;
  halves.reserve(2 * count);
  for (size_t i = 0; i < count; ++i) {
    const gs::EdgeUpdate& e = prefix[i];
    halves.push_back({e.u, e.v, e.delta});
    halves.push_back({e.v, e.u, e.delta});
  }
  auto replay = [&](const std::vector<gs::HalfUpdate>& order) {
    auto sketch = info->make(w.n, OptionsFor(w), kSketchSeed);
    const int64_t t0 = NowNs();
    for (const gs::HalfUpdate& h : order) {
      sketch->UpdateEndpoint(h.endpoint, h.endpoint, h.other, h.delta);
    }
    return static_cast<double>(NowNs() - t0) /
           static_cast<double>(order.size());
  };
  r.update_endpoint_ns_per_half = replay(halves);
  std::stable_sort(halves.begin(), halves.end(),
                   [](const gs::HalfUpdate& a, const gs::HalfUpdate& b) {
                     return a.endpoint < b.endpoint;
                   });
  r.update_endpoint_grouped_ns_per_half = replay(halves);
  return r;
}

// -------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  // timing samples behind the value (1 = single reading)
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 50;
  int trace = 0;
  std::string out = ".bench_out";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest-hotspot|serve-kconnect [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--out") {
      args.out = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) return Usage("unknown or missing --workload");
  if (args.trace != 0 && args.trace != 1) return Usage("--trace is 0 or 1");
  const Workload& w = *wp;
  const bool trace = args.trace == 1;

  std::error_code ec;
  std::filesystem::create_directories(args.out + "/results", ec);
  if (ec) return Usage(("cannot create " + args.out).c_str());
  const std::string tag = std::string(w.name) + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          std::to_string(args.trace);
  const std::string gskb = args.out + "/" + w.name + ".gskb";
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < kWorkers + 2) {
    std::fprintf(stderr, "perfbench: warning: nproc=%u is below the thread "
                 "budget of %u (workers + producer + query thread)\n",
                 nproc, kWorkers + 2);
  }

  Tracer tracer;
  tracer.set_enabled(trace);
  uint64_t next_request = 1;
  uint64_t next_query_request = 1000000;
  std::vector<SetupTimes> done_setups;
  auto setup_once = [&](Setup* s) {
    std::string error;
    if (!DoSetup(w, args.seed, gskb, &tracer, next_request++, s, &error)) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
      return false;
    }
    done_setups.push_back(s->times);
    return true;
  };

  const int64_t run_start = NowNs();
  Setup setup;
  if (!setup_once(&setup)) return 1;

  // Timed passes (tracing off) until the time budget is spent; a traced
  // run makes one untraced and one traced pass.
  std::vector<Pass> passes;
  Pass traced;
  const int64_t t_first_pass = NowNs();
  for (;;) {
    const int64_t t0 = NowNs();
    const bool traced_pass = trace && passes.size() == 1;
    tracer.set_enabled(traced_pass);
    Pass p = RunPass(w, setup, gskb, &tracer, next_request++,
                     &next_query_request);
    tracer.set_enabled(trace);
    setup = Setup();  // closes the session and stops its workers
    std::fprintf(stderr,
                 "  pass %zu%s: %.0f tokens/s, drain %.1f ms, result %.1f "
                 "ms, snapshot p50/p90 %.2f/%.2f ms, query p50 %.2f ms, "
                 "peak rss %.1f MiB\n",
                 passes.size() + 1, traced_pass ? " (traced)" : "",
                 static_cast<double>(w.tokens) / p.ingest_s, p.drain_ms,
                 p.result_ms, Percentile(p.snapshot_ms, 0.5),
                 Percentile(p.snapshot_ms, 0.9), Percentile(QueryMs(p), 0.5),
                 p.peak_rss_mib);
    if (traced_pass) {
      traced = std::move(p);
      break;
    }
    passes.push_back(std::move(p));
    const double elapsed = static_cast<double>(NowNs() - run_start) / 1e9;
    const double last = static_cast<double>(NowNs() - t0) / 1e9 +
                        done_setups.back().total_s;
    if (!trace && elapsed + last > args.seconds) break;
    if (!setup_once(&setup)) return 1;
  }
  const double measured_s = static_cast<double>(NowNs() - t_first_pass) / 1e9;
  while (static_cast<int>(done_setups.size()) < kMinSetups) {
    if (!setup_once(&setup)) return 1;
    setup = Setup();
  }

  // Exact answers at every pinned query position (untimed), then the
  // answer check of every pass.
  std::vector<uint64_t> positions;
  if (w.snapshot_every != 0) {
    const uint64_t step = w.snapshot_every * w.query_every;
    for (uint64_t p = step; p < w.tokens; p += step) positions.push_back(p);
  }
  positions.push_back(w.tokens);
  const std::map<uint64_t, std::string> exact =
      ExactAnswers(w, gskb, positions);
  if (exact.size() != positions.size()) {
    std::fprintf(stderr, "perfbench: cannot replay %s for exact answers\n",
                 gskb.c_str());
    return 1;
  }

  for (Pass& p : passes) CheckAnswers(w, exact, &p);
  if (trace) CheckAnswers(w, exact, &traced);

  // ---------------------------------------------------------- gather --
  // Each end-to-end metric but setup_s is a per-pass value (a latency
  // percentile is taken within the pass), and the run reports the mean
  // over its passes. Passes of one run differ by up to +-25% on the same
  // work, at times in two clusters, and the mean of such a mix moves
  // less from run to run than its median. Sample counts are per run.
  uint64_t attempted = 0, failed = 0;
  std::vector<double> rates, result_ms, snap_p50, snap_p90, query_p50, rss,
      mem;
  size_t snap_samples = 0, query_samples = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    rates.push_back(static_cast<double>(w.tokens) / p.ingest_s);
    result_ms.push_back(p.result_ms);
    snap_p50.push_back(Percentile(p.snapshot_ms, 0.5));
    snap_p90.push_back(Percentile(p.snapshot_ms, 0.9));
    snap_samples += p.snapshot_ms.size();
    const std::vector<double> query_ms = QueryMs(p);
    query_p50.push_back(Percentile(query_ms, 0.5));
    query_samples += query_ms.size();
    rss.push_back(p.peak_rss_mib);
    mem.push_back(p.memory_mib);
  }
  std::vector<double> setup_s, gen_s, write_s, create_ms;
  for (const SetupTimes& s : done_setups) {
    setup_s.push_back(s.total_s);
    gen_s.push_back(s.generate_s);
    write_s.push_back(s.write_s);
    create_ms.push_back(s.create_ms);
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s", setup_s.size()},
        {"ingest_tokens_per_s", Mean(rates), "tokens/s", rates.size()},
        {"result_ms", Mean(result_ms), "ms", result_ms.size()},
        {"snapshot_ms_p50", Mean(snap_p50), "ms", snap_samples},
        {"snapshot_ms_p90", Mean(snap_p90), "ms", snap_samples},
        {"query_ms_p50", Mean(query_p50), "ms", query_samples},
        {"peak_rss_mib", Mean(rss), "MiB", rss.size()},
        {"memory_mib", Mean(mem), "MiB", mem.size()},
    };
  } else {
    attempted += traced.attempted;
    failed += traced.failed;
    const Pass& base = passes.front();
    const double tokens = static_cast<double>(w.tokens);
    const double halves = 2.0 * tokens;
    auto self = tracer.SelfTimes(traced.request);
    auto self_ns = [&](const char* name) { return self[name].first; };
    std::vector<double> q_decode, q_wait;
    for (const QueryAnswer& a : traced.answers) {
      q_decode.push_back(a.decode_ms);
      q_wait.push_back(a.wait_ms);
    }
    for (const QueryAnswer& a : traced.served) q_decode.push_back(a.decode_ms);
    uint64_t wmax = 0, wsum = 0;
    for (uint64_t h : traced.worker_halves) {
      wmax = std::max(wmax, h);
      wsum += h;
    }
    const double skew =
        wsum == 0 ? 0.0
                  : static_cast<double>(wmax) * traced.worker_halves.size() /
                        static_cast<double>(wsum);
    // Producer-side accounting over the ingest window: read + push self
    // time and the publishes, less the final Publish's fork, which
    // follows the final drain.
    const double window_ns =
        self_ns("driver.binary_stream.read") + self_ns("session.push") +
        self_ns("session.publish") -
        (traced.final_publish_ms - traced.drain_ms) * 1e6;
    const double untraced_ns = base.ingest_s * 1e9;
    const double overhead = traced.ingest_s / base.ingest_s - 1.0;
    const double accounted = window_ns / untraced_ns;
    // Spans must cover the traced ingest window to within 2%, i.e. they
    // add up to the untraced wall time within the tracing overhead.
    attempted += 1;
    if (std::fabs(accounted - (1.0 + overhead)) > 0.02 * (1.0 + overhead)) {
      failed += 1;
      std::fprintf(stderr, "perfbench: trace accounting off: spans %.1f ms, "
                   "traced wall %.1f ms\n", window_ns / 1e6,
                   traced.ingest_s * 1e3);
    }
    const Rungs rungs = MeasureRungs(w, gskb);
    metrics = {
        {"sketch.finger_ns_per_id", rungs.finger_ns_per_id, "ns", 1},
        {"core.apply_batch_ns_per_half", rungs.apply_batch_ns_per_half, "ns",
         1},
        {"core.update_endpoint_ns_per_half",
         rungs.update_endpoint_ns_per_half, "ns", 1},
        {"core.update_endpoint_grouped_ns_per_half",
         rungs.update_endpoint_grouped_ns_per_half, "ns", 1},
        {"core.query_ms_p50", Percentile(q_decode, 0.5), "ms",
         q_decode.size()},
        {"core.cells", static_cast<double>(traced.cells), "count", 1},
        {"driver.gutter.push_ns_per_token", rungs.gutter_push_ns_per_token,
         "ns", 1},
        {"driver.gutter.coalesced_frac",
         static_cast<double>(traced.coalesced) / halves, "frac", 1},
        {"driver.gutter.halves_per_flush",
         traced.flushes == 0 ? 0.0 : halves / traced.flushes, "count", 1},
        {"driver.ingest_pipeline.worker_skew", skew, "ratio", 1},
        {"driver.binary_stream.read_ns_per_token",
         self_ns("driver.binary_stream.read") / tokens, "ns",
         self["driver.binary_stream.read"].second},
        {"driver.binary_stream.write_s", Median(write_s), "s",
         write_s.size()},
        {"driver.snapshot.drain_ms_p50",
         Percentile(traced.snap_drain_ms, 0.5), "ms",
         traced.snap_drain_ms.size()},
        {"driver.snapshot.publish_ms_p50",
         Percentile(traced.snap_publish_ms, 0.5), "ms",
         traced.snap_publish_ms.size()},
        {"driver.snapshot.publish_ms_p90",
         Percentile(traced.snap_publish_ms, 0.9), "ms",
         traced.snap_publish_ms.size()},
        {"driver.snapshot.query_wait_ms_p50", Percentile(q_wait, 0.5), "ms",
         q_wait.size()},
        {"session.push_ns_per_token", self_ns("session.push") / tokens, "ns",
         self["session.push"].second},
        {"session.drain_ms", traced.drain_ms, "ms", 1},
        {"session.create_ms", Median(create_ms), "ms", create_ms.size()},
        {"workload.generate_s", Median(gen_s), "s", gen_s.size()},
        {"trace.ingest_tokens_per_s", tokens / traced.ingest_s, "tokens/s",
         1},
        {"trace.untraced_ingest_tokens_per_s", tokens / base.ingest_s,
         "tokens/s", 1},
        {"trace.overhead_frac", overhead, "frac", 1},
        {"trace.accounted_frac", accounted, "frac", 1},
    };
    const std::string spans = args.out + "/trace-" + tag + ".jsonl";
    if (!tracer.Write(spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans -> %s\n", spans.c_str());
  }

  // ---------------------------------------------------------- report --
  const bool correct = failed == 0;
  std::string shape = "{\"profile\": " + Json(w.profile) +
                      ", \"n\": " + std::to_string(w.n) +
                      ", \"tokens\": " + std::to_string(w.tokens) +
                      ", \"family\": " + Json(w.family) +
                      ", \"k\": " + std::to_string(w.k) +
                      ", \"workers\": " + std::to_string(kWorkers) +
                      ", \"gutter_bytes\": " + std::to_string(kGutterBytes) +
                      ", \"snapshot_every\": " +
                      std::to_string(w.snapshot_every) +
                      ", \"query_every\": " + std::to_string(w.query_every) +
                      ", \"query\": " + Json(w.query) +
                      ", \"trace\": " + std::to_string(args.trace) + "}";
  std::string env = "{\"kernel_backend\": " +
                    Json(gs::CellKernelBackend()) +
                    ", \"nproc\": " + std::to_string(nproc) +
                    ", \"compiler\": " + Json(__VERSION__) + "}";
  std::string metric_json, record_metrics;
  std::fprintf(stderr,
               "perfbench %s seed=%llu (default %llu) trace=%d passes=%zu "
               "setups=%zu measured=%.1fs\n  shape %s\n  env   %s\n",
               w.name, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(kDefaultSeed), args.trace,
               passes.size() + (trace ? 1 : 0), done_setups.size(),
               measured_s, shape.c_str(), env.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %14.4f %-9s (n=%zu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(), m.samples);
    const std::string body = "{\"value\": " + Num(m.value) +
                             ", \"unit\": " + Json(m.unit);
    if (!metric_json.empty()) metric_json += ", ";
    metric_json += Json(m.name) + ": " + body + "}";
    if (!record_metrics.empty()) record_metrics += ",\n    ";
    record_metrics += Json(m.name) + ": " + body +
                      ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  std::fprintf(stderr, "  correct=%s attempted=%llu failed=%llu\n",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));

  const std::string record_path =
      args.out + "/results/" + tag + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"workload\": %s,\n  \"seed\": %llu,\n"
                 "  \"seed_default\": %llu,\n  \"shape\": %s,\n"
                 "  \"env\": %s,\n  \"passes\": %zu,\n  \"setups\": %zu,\n"
                 "  \"correct\": %s,\n  \"attempted\": %llu,\n"
                 "  \"failed\": %llu,\n  \"metrics\": {\n    %s\n  }\n}\n",
                 Json(w.name).c_str(),
                 static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(kDefaultSeed),
                 shape.c_str(), env.c_str(),
                 passes.size() + (trace ? 1 : 0), done_setups.size(),
                 correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed),
                 record_metrics.c_str());
    std::fclose(f);
  }
  std::remove(gskb.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metric_json.c_str());
  return 0;
}
