// hbmsim_perfbench: the measuring binary behind perfbench/run.py.
//
//   hbmsim_perfbench --workload paper_fig2|backlog_f4|serve_slo
//                    --seed N --seconds S --trace 0|1
//
// One process runs one workload, single-threaded, so its peak resident
// memory belongs to that workload. A run repeats *passes* until S seconds
// have gone by: each pass builds the workload's inputs from the seed,
// constructs every simulator (together: the set-up phase), runs them
// (the run phase) and checks every result. Host times are medians over
// passes, scaled to reference seconds by a fixed kernel timed beside them
// (ReferenceKernel); simulated statistics are deterministic and must
// repeat exactly from pass to pass.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints per-layer
// metrics instead: each pass runs every simulation twice, plain and
// traced (each Simulator::step() timed, and on tick-engine runs the HBM
// behind a counting CacheModel decorator), and unit costs of each layer
// come from timed calls into its public API on the run's own data.
// Everything is measured from this file; the library carries no
// instrumentation.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A failed correctness check makes the exit code 1.
#define HBMSIM_ALLOC_SHIM
#include "util/alloc_shim.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/arbitration.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/hbm_cache.h"
#include "core/metrics.h"
#include "core/priority_map.h"
#include "core/simulator.h"
#include "opt/lower_bound.h"
#include "serve/arrival.h"
#include "serve/serving.h"
#include "stats/histogram.h"
#include "stats/streaming.h"
#include "trace/trace.h"
#include "trace/trace_cursor.h"
#include "workloads/sort_trace.h"
#include "workloads/spgemm.h"
#include "workloads/synthetic.h"

namespace {

using namespace hbmsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps a value alive so timed replay loops are not optimised away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Host-speed reference.

/// A fixed kernel in the shape of the simulator's hit path (open-address
/// hash probes, list splices, a sequential read) on fixed data. Host
/// speed here drifts by tens of percent over seconds, and memory-bound
/// code drifts most; the kernel, timed right after each simulation, drifts
/// with it, so host times are scaled by kReferenceS / (kernel time).
class ReferenceKernel {
 public:
  /// Nominal time of one run(): the unit in which host times are reported
  /// (about the kernel's median on the 4-vCPU Xeon virtual machine the
  /// benchmark was tuned on).
  static constexpr double kReferenceS = 0.01;

  ReferenceKernel() : table_(1 << 16), prev_(kNodes), next_(kNodes), stream_(1 << 18) {
    std::uint64_t x = 1;
    const auto draw = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x;
    };
    for (std::uint64_t& slot : table_) {
      const std::uint64_t v = draw();
      slot = (v >> 20) & 1 ? v : 0;  // half the slots hold a key
    }
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      prev_[i] = (i + kNodes - 1) % kNodes;
      next_[i] = (i + 1) % kNodes;
    }
    for (std::uint32_t& v : stream_) {
      v = static_cast<std::uint32_t>(draw() >> 40);
    }
  }

  /// Host seconds for two passes over the stream.
  double run() {
    const auto t0 = Clock::now();
    std::uint64_t found = 0;
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::uint32_t v : stream_) {
        std::uint64_t h = (v * 0x9E3779B97F4A7C15ULL) >> 48;
        while (table_[h] != 0 && (table_[h] & 0xffff) != (v & 0xffff)) {
          h = (h + 1) & 0xffff;
        }
        found += table_[h] != 0 ? 1 : 0;
        const std::uint32_t n = v % kNodes;
        if (n != head_) {  // move n to the front
          next_[prev_[n]] = next_[n];
          prev_[next_[n]] = prev_[n];
          next_[n] = next_[head_];
          prev_[n] = head_;
          prev_[next_[head_]] = n;
          next_[head_] = n;
        }
        head_ = n;
      }
    }
    keep(found);
    return seconds_since(t0);
  }

 private:
  static constexpr std::uint32_t kNodes = 4096;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint32_t> prev_, next_;
  std::vector<std::uint32_t> stream_;
  std::uint32_t head_ = 0;
};

// ---------------------------------------------------------------------------
// Workload definitions. Each is a pure function of the seed.

constexpr const char* kWorkloads[] = {"paper_fig2", "backlog_f4", "serve_slo"};

/// One closed-loop simulation: a workload (by index) under a config.
struct ClosedJob {
  std::string label;
  std::size_t workload = 0;
  SimConfig config;
};

/// One open-loop operating point of serve_slo.
struct ServePoint {
  std::string label;
  double rho = 0.0;
  bool on_ladder = true;  ///< false for the on-off burst point
  serve::ServingConfig config;
};

struct Inputs {
  std::vector<Workload> workloads;
  std::vector<ClosedJob> closed;
  std::vector<ServePoint> serve;
};

/// Pin what a SimConfig would otherwise inherit from HBMSIM_ENGINE,
/// HBMSIM_ARBITER and HBMSIM_PARANOID.
SimConfig pinned(SimConfig c, std::uint64_t seed) {
  c.engine = EngineKind::kAuto;
  c.arbiter_impl = ArbiterImpl::kFast;
  c.paranoid = false;
  c.seed = seed;
  return c;
}

// paper_fig2: the paper's Figure 2 at the quick scale's largest thread
// count — Dataset 1 (mergesort) and Dataset 2 (SpGEMM), materialized,
// FIFO vs Priority at fig2's four HBM sizes, fetch_ticks = 1 (the tick
// engine). Time goes to the hit path.
constexpr std::size_t kFig2Threads = 32;
constexpr std::size_t kFig2Distinct = 4;

void add_fig2(Inputs& in, std::uint64_t seed) {
  workloads::SortTraceOptions sort;
  sort.num_elements = 2'000;
  sort.algo = workloads::SortAlgo::kMergeSort;
  sort.seed = seed;
  sort.page_bytes = 1024;
  workloads::SpgemmOptions spgemm;
  spgemm.rows = 96;
  spgemm.cols = 96;
  spgemm.density = 0.10;
  spgemm.seed = seed;
  spgemm.page_bytes = 1024;
  in.workloads.push_back(
      workloads::make_sort_workload(kFig2Threads, sort, kFig2Distinct));
  in.workloads.push_back(
      workloads::make_spgemm_workload(kFig2Threads, spgemm, kFig2Distinct));
  const char* names[] = {"sort", "spgemm"};
  for (std::size_t w = 0; w < in.workloads.size(); ++w) {
    // fig2's HBM sizes: one, two, three and five per-thread working sets.
    const std::uint64_t ws =
        std::max<std::uint64_t>(4, in.workloads[w].trace(0).unique_pages());
    for (const std::uint64_t mult : {1, 2, 3, 5}) {
      const std::uint64_t k = mult * ws;
      for (const bool prio : {false, true}) {
        ClosedJob job;
        job.label = std::string(names[w]) + "/k=" + std::to_string(k) +
                    (prio ? "/priority" : "/fifo");
        job.workload = w;
        job.config =
            pinned(prio ? SimConfig::priority(k) : SimConfig::fifo(k), seed);
        in.closed.push_back(std::move(job));
      }
    }
  }
}

// backlog_f4: p streaming Zipf threads against a small far channel
// (q = 2, fetch_ticks = 4), so the event engine runs a saturated
// backlog: FIFO on its dense layer, then Dynamic Priority with a short
// remap period on its portable layer with bucketed arbitration.
constexpr std::size_t kBacklogThreads = 2048;

void add_backlog(Inputs& in, std::uint64_t seed) {
  workloads::SyntheticOptions o;
  o.kind = workloads::SyntheticKind::kZipf;
  o.num_pages = 64;
  o.length = 1536;
  o.zipf_s = 0.99;
  o.seed = seed;
  in.workloads.push_back(workloads::make_streaming_workload(kBacklogThreads, o));
  const std::uint64_t k = 1024;
  const std::uint32_t q = 2;
  SimConfig fifo = SimConfig::fifo(k, q);
  SimConfig dynamic = SimConfig::dynamic_priority(k, /*t_mult=*/0.25, q, seed);
  for (SimConfig* c : {&fifo, &dynamic}) {
    c->fetch_ticks = 4;
  }
  in.closed.push_back({"zipf/fifo", 0, pinned(fifo, seed)});
  in.closed.push_back({"zipf/dynamic(T=k/4)", 0, pinned(dynamic, seed)});
}

// serve_slo: an interactive tenant (class 0, tight SLO) and a batch
// tenant (class 1) under Priority arbitration, Poisson arrivals on a
// fixed offered-load ladder plus one on-off burst point. Capacity is the
// machine's worst case, q fetches per tick over refs fetches per request.
// Arrivals are simulated ticks injected exactly when due, so the
// generator is never late.
constexpr std::uint32_t kServeChannels = 2;
constexpr std::uint32_t kServeRefs = 8;
constexpr Tick kServeDuration = 150'000;
constexpr Tick kInteractiveSlo = 64;
constexpr double kServeLadder[] = {0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2};
constexpr double kBurstRho = 0.7;

serve::ServingConfig serve_config(serve::ArrivalKind kind, double rho,
                                  std::uint64_t seed) {
  const double capacity = static_cast<double>(kServeChannels) / kServeRefs;
  const double per_tenant = rho * capacity / 2.0;
  serve::ArrivalSpec arrival;
  arrival.kind = kind;
  arrival.rate = per_tenant;
  if (kind == serve::ArrivalKind::kOnOff) {
    arrival.on_ticks = 500;
    arrival.off_ticks = 500;
    arrival.rate = 2.0 * per_tenant;  // same mean load, in bursts
  }
  serve::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.workers = 4;
  interactive.priority_class = 0;
  interactive.arrival = arrival;
  interactive.shape = serve::RequestShape{64, kServeRefs, 0.9};
  interactive.slo_ticks = kInteractiveSlo;
  interactive.max_pending = 32;
  serve::TenantSpec batch = interactive;
  batch.name = "batch";
  batch.priority_class = 1;
  batch.shape = serve::RequestShape{512, kServeRefs, 0.0};
  batch.slo_ticks = 512;

  serve::ServingConfig c;
  c.tenants = {interactive, batch};
  c.sim = pinned(SimConfig::priority(256, kServeChannels), seed);
  c.sim.fetch_ticks = 2;
  c.sim.open_system = true;
  c.sim.max_ticks = kServeDuration * 4;
  c.duration = kServeDuration;
  c.seed = seed;
  return c;
}

void add_serve(Inputs& in, std::uint64_t seed) {
  for (const double rho : kServeLadder) {
    char label[48];
    std::snprintf(label, sizeof label, "poisson/rho=%.2f", rho);
    in.serve.push_back(
        {label, rho, true, serve_config(serve::ArrivalKind::kPoisson, rho, seed)});
  }
  char label[48];
  std::snprintf(label, sizeof label, "onoff/rho=%.2f", kBurstRho);
  in.serve.push_back({label, kBurstRho, false,
                      serve_config(serve::ArrivalKind::kOnOff, kBurstRho, seed)});
}

Inputs build_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  if (workload == "paper_fig2") {
    add_fig2(in, seed);
  } else if (workload == "backlog_f4") {
    add_backlog(in, seed);
  } else {
    add_serve(in, seed);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Tracing from outside the library.

/// Cost of one back-to-back pair of clock reads, subtracted from short
/// timed windows.
double clock_floor_ns() {
  std::vector<double> d(20'001);
  for (double& x : d) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    x = std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  return median(std::move(d));
}

struct CacheCounts {
  std::uint64_t probes = 0;
  std::uint64_t touches = 0;
  std::uint64_t inserts = 0;
};

/// Counting decorator over a residency model: the exact number of
/// probes, touches and inserts a run makes, in situ. Timing each call
/// would cost more than most calls, so unit costs come from
/// replay_cache instead.
class CountingCache final : public CacheModel {
 public:
  CountingCache(std::unique_ptr<CacheModel> inner, CacheCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  [[nodiscard]] bool contains(GlobalPage page) const override {
    ++counts_.probes;
    return inner_->contains(page);
  }
  void touch(GlobalPage page) override {
    ++counts_.touches;
    inner_->touch(page);
  }
  std::optional<GlobalPage> insert(GlobalPage page) override {
    ++counts_.inserts;
    return inner_->insert(page);
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] std::uint64_t capacity() const override {
    return inner_->capacity();
  }
  [[nodiscard]] std::uint64_t evictions() const override {
    return inner_->evictions();
  }
  [[nodiscard]] std::vector<GlobalPage> resident_pages() const override {
    return inner_->resident_pages();
  }

 private:
  std::unique_ptr<CacheModel> inner_;
  CacheCounts& counts_;
};

struct StepTrace {
  std::uint64_t steps = 0;
  double step_s = 0.0;
};

/// Drive a simulator one step() at a time, timing each, then finalize.
RunMetrics run_stepped(Simulator& sim, StepTrace& trace) {
  for (;;) {
    const auto t0 = Clock::now();
    const bool stepped = sim.step();
    trace.step_s += seconds_since(t0);
    if (!stepped) {
      break;
    }
    ++trace.steps;
  }
  return sim.run();  // already finished: only finalizes
}

// ---- replays: timed calls into one layer's public API ----

/// ns per TraceCursor::next(), draining fresh cursors of `w`.
double replay_trace_ns(const Workload& w, std::uint64_t max_refs) {
  std::uint64_t refs = 0;
  double ns = 0.0;
  LocalPage sink = 0;
  for (std::size_t t = 0; t < w.num_threads() && refs < max_refs; ++t) {
    auto cursor = w.cursor(t);
    const auto t0 = Clock::now();
    while (!cursor->exhausted()) {
      sink ^= cursor->current();
      cursor->next();
    }
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    refs += cursor->size();
  }
  keep(sink);
  return refs == 0 ? 0.0 : ns / static_cast<double>(refs);
}

struct CacheCost {
  double probe_ns = 0.0;
  double touch_ns = 0.0;
  double insert_ns = 0.0;
};

/// Batched unit costs of the HBM on `w`'s references (threads interleaved
/// round-robin, namespaced as the simulator does, at most max_refs):
/// a probe/insert/touch replay; the same replay with each probe's outcome
/// known in advance, so the difference is the probes; and touches alone
/// on resident pages. Calls go through CacheModel, as in the simulator.
CacheCost replay_cache(const Workload& w, std::uint64_t k, ReplacementKind r,
                       std::uint64_t max_refs) {
  std::vector<std::unique_ptr<TraceCursor>> cursors;
  for (std::size_t t = 0; t < w.num_threads(); ++t) {
    cursors.push_back(w.cursor(t));
  }
  std::vector<GlobalPage> pages;
  for (bool live = true; live && pages.size() < max_refs;) {
    live = false;
    for (std::size_t t = 0; t < cursors.size() && pages.size() < max_refs; ++t) {
      if (!cursors[t]->exhausted()) {
        live = true;
        pages.push_back(
            make_global_page(static_cast<ThreadId>(t), cursors[t]->current()));
        cursors[t]->next();
      }
    }
  }
  const auto ns_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };
  std::vector<std::uint8_t> hit(pages.size());
  std::unique_ptr<CacheModel> full = std::make_unique<HbmCache>(k, r);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < pages.size(); ++i) {
    hit[i] = full->contains(pages[i]) ? 1 : 0;
    if (hit[i] == 0) {
      keep(full->insert(pages[i]));
    }
    full->touch(pages[i]);
  }
  const double full_ns = ns_since(t0);
  std::unique_ptr<CacheModel> known = std::make_unique<HbmCache>(k, r);
  t0 = Clock::now();
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (hit[i] == 0) {
      keep(known->insert(pages[i]));
    }
    known->touch(pages[i]);
  }
  const double known_ns = ns_since(t0);
  std::vector<GlobalPage> resident;
  for (const GlobalPage page : pages) {
    if (known->contains(page)) {
      resident.push_back(page);
    }
  }
  t0 = Clock::now();
  for (const GlobalPage page : resident) {
    known->touch(page);
  }
  const double touch_ns = ns_since(t0);

  const auto n = static_cast<double>(pages.size());
  const auto misses =
      static_cast<double>(std::count(hit.begin(), hit.end(), std::uint8_t{0}));
  CacheCost cost;
  cost.touch_ns =
      resident.empty() ? 0.0 : touch_ns / static_cast<double>(resident.size());
  cost.probe_ns = n == 0 ? 0.0 : std::max(0.0, full_ns - known_ns) / n;
  cost.insert_ns =
      misses == 0 ? 0.0 : std::max(0.0, known_ns - n * cost.touch_ns) / misses;
  return cost;
}

struct ArbiterCost {
  double enqueue_ns = 0.0;
  double pop_ns = 0.0;
  double remap_ns = 0.0;
};

/// Fill-and-drain rounds at the run's queue depth through
/// ArbitrationPolicy::make, plus remaps with that many requests queued.
ArbiterCost replay_arbiter(const SimConfig& c, std::uint32_t p,
                           std::size_t depth, double floor_ns) {
  depth = std::clamp<std::size_t>(depth, 1, p);
  PriorityMap pi(p,
                 c.arbitration == ArbitrationKind::kPriority ? c.remap_scheme
                                                             : RemapScheme::kNone,
                 c.seed);
  auto queue = ArbitrationPolicy::make(c.arbitration, &pi, c.seed,
                                       c.num_channels, c.row_pages, p,
                                       c.adaptive_high_depth,
                                       c.adaptive_low_depth);
  const std::size_t rounds = std::max<std::size_t>(1, 400'000 / depth);
  double enq_ns = 0.0;
  double pop_ns = 0.0;
  std::uint64_t ops = 0;
  ThreadId next = 0;
  Tick tick = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < depth; ++i) {
      const ThreadId t = (next + static_cast<ThreadId>(i)) % p;
      queue->enqueue(QueuedRequest{make_global_page(t, r % 64), t, tick++});
    }
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < depth; ++i) {
      keep(queue->pop(static_cast<std::uint32_t>(i % c.num_channels)));
    }
    const auto t2 = Clock::now();
    enq_ns += std::chrono::duration<double, std::nano>(t1 - t0).count() - floor_ns;
    pop_ns += std::chrono::duration<double, std::nano>(t2 - t1).count() - floor_ns;
    ops += depth;
    next = (next + static_cast<ThreadId>(depth)) % p;
  }
  ArbiterCost cost;
  cost.enqueue_ns = std::max(0.0, enq_ns) / static_cast<double>(ops);
  cost.pop_ns = std::max(0.0, pop_ns) / static_cast<double>(ops);
  for (std::size_t i = 0; i < depth; ++i) {
    const auto t = static_cast<ThreadId>(i);
    queue->enqueue(QueuedRequest{make_global_page(t, 0), t, tick++});
  }
  const int remaps = 2'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < remaps; ++i) {
    if (pi.remap()) {
      queue->on_priorities_changed();
    }
  }
  cost.remap_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      remaps;
  return cost;
}

/// ns per statistics add: the tick path's global Welford add, log₂
/// histogram add and per-thread Welford add, on response-like values.
double replay_stats_ns() {
  const std::uint64_t n = 2'000'000;
  StreamingStats global;
  StreamingStats thread;
  LogHistogram hist;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t w = (x & 7) == 0 ? 2 + (x >> 58) : 1;
    global.add(static_cast<double>(w));
    hist.add(w);
    thread.add(static_cast<double>(w));
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  keep(global);
  keep(thread);
  keep(hist);
  return ns / static_cast<double>(3 * n);
}

/// ns per ArrivalProcess::pop at one tenant's arrival spec.
double replay_arrivals_ns(const serve::ArrivalSpec& spec, std::uint64_t seed) {
  serve::ArrivalProcess arrivals(spec, seed);
  const int n = 1'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    arrivals.pop();
  }
  keep(arrivals.peek());
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / n;
}

// ---------------------------------------------------------------------------
// Correctness: invariants and a fingerprint of every simulated statistic.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

void fingerprint(Fnv& f, const RunMetrics& m) {
  // skipped_ticks is an engine diagnostic, not a simulated statistic.
  for (const std::uint64_t v :
       {m.makespan, m.total_refs, m.hits, m.misses, m.evictions, m.remaps,
        m.fetches, m.requeues, m.idle_ticks, std::uint64_t{m.truncated}}) {
    f.add(v);
  }
  f.add(m.response.mean());
  f.add(m.response.variance());
  f.add(m.response_quantile(0.99));
  for (const ThreadMetrics& t : m.per_thread) {
    f.add(t.completion_tick);
    f.add(t.misses);
  }
}

void fingerprint(Fnv& f, const serve::ServingMetrics& m) {
  fingerprint(f, m.sim);
  f.add(m.horizon);
  for (const serve::TenantMetrics& t : m.per_tenant) {
    for (const std::uint64_t v : {t.arrivals, t.admitted, t.rejected, t.completed,
                                  t.slo_violations, t.starved, t.max_wait}) {
      f.add(v);
    }
    f.add(t.latency.mean());
    f.add(t.latency_quantile(0.99));
  }
}

struct Checker {
  std::uint64_t failed_checks = 0;
  bool job_failed = false;
  void expect(bool ok, const std::string& job, const char* what) {
    if (!ok) {
      std::printf("CHECK FAILED [%s]: %s\n", job.c_str(), what);
      ++failed_checks;
      job_failed = true;
    }
  }
};

/// Makespan lower bounds for any workload, materializing at most a chunk
/// of threads at a time (streaming workloads stay O(chunk) in memory).
opt::MakespanBounds lower_bounds(const Workload& w, std::uint64_t k,
                                 std::uint32_t q) {
  constexpr std::size_t kChunk = 512;
  opt::MakespanBounds b;
  std::uint64_t min_misses = 0;
  for (std::size_t t0 = 0; t0 < w.num_threads(); t0 += kChunk) {
    std::vector<std::shared_ptr<const Trace>> part;
    for (std::size_t t = t0; t < std::min(w.num_threads(), t0 + kChunk); ++t) {
      part.push_back(materialize_shared(*w.source(t)));
    }
    // With q = 1 the congestion bound is the chunk's summed Belady misses.
    const opt::MakespanBounds c =
        opt::makespan_lower_bounds(Workload(std::move(part)), k, 1);
    b.critical_path = std::max(b.critical_path, c.critical_path);
    min_misses += c.channel_congestion;
  }
  b.channel_congestion = (min_misses + q - 1) / q;
  return b;
}

void check_closed(Checker& ck, const ClosedJob& job, const Workload& w,
                  const RunMetrics& m, std::uint64_t lower_bound) {
  ck.expect(!m.truncated, job.label, "run truncated");
  ck.expect(m.hits + m.misses == m.total_refs, job.label,
            "hits + misses != total_refs");
  ck.expect(m.total_refs == w.total_refs(), job.label,
            "total_refs != sum of trace lengths");
  ck.expect(m.fetches <= m.misses, job.label, "fetches > misses");
  ck.expect(m.makespan >= lower_bound, job.label,
            "makespan below the offline lower bound");
}

void check_serve(Checker& ck, const ServePoint& pt, const serve::ServingMetrics& m) {
  ck.expect(!m.sim.truncated, pt.label, "run truncated");
  ck.expect(m.sim.hits + m.sim.misses == m.sim.total_refs, pt.label,
            "hits + misses != total_refs");
  ck.expect(m.sim.fetches <= m.sim.misses, pt.label, "fetches > misses");
  ck.expect(m.sim.total_refs == m.total_completed() * kServeRefs, pt.label,
            "total_refs != sum of completed request trace lengths");
  // After an untruncated run nothing is pending or in service, so the
  // conservation law reads arrivals == completed + rejected.
  for (const serve::TenantMetrics& t : m.per_tenant) {
    ck.expect(t.arrivals == t.completed + t.rejected, pt.label,
              "arrivals != completed + rejected + pending + in service");
    ck.expect(t.admitted == t.completed, pt.label, "admitted != completed");
  }
}

// ---------------------------------------------------------------------------
// The measurement loop.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One simulation's outcome in one pass.
struct JobRun {
  RunMetrics metrics;
  serve::ServingMetrics serving;  // serve_slo only
  double plain_s = 0.0;
  double reference_s = 0.0;  ///< the reference kernel, right after the plain run
  double traced_s = 0.0;
  std::uint64_t traced_fingerprint = 0;
  StepTrace steps;
};

class Bench {
 public:
  explicit Bench(Options opt) : opt_(std::move(opt)) {}

  int run() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
    floor_ns_ = clock_floor_ns();
    const auto start = Clock::now();
    do {
      pass();
      ++passes_;
    } while ((passes_ < kMinPasses || seconds_since(start) < opt_.seconds) &&
             passes_ < kMaxPasses);
    report_results();
    opt_.trace ? report_layers() : report_end_to_end();
    return checker_.failed_checks == 0 ? 0 : 1;
  }

 private:
  static constexpr int kMinPasses = 3;
  static constexpr int kMaxPasses = 1000;
  /// Set-up is repeated within a pass until it has taken this long, so
  /// a workload whose set-up takes microseconds still gets a stable median.
  static constexpr double kMinSetupS = 0.02;

  [[nodiscard]] std::size_t num_jobs() const {
    return inputs_.closed.size() + inputs_.serve.size();
  }

  /// Move the (single) benchmark thread to the next allowed CPU. Host
  /// speed drifts per virtual CPU, so a run that visits every CPU in
  /// turn samples all of them instead of whichever one it started on.
  void rotate_cpu() const {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(passes_) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  void pass() {
    rotate_cpu();
    // Set-up phase: inputs from the seed, then every simulator.
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<std::unique_ptr<serve::ServingSimulator>> servers;
    util::reset_alloc_peak();
    const std::size_t reps_before = setup_s_.size();
    std::uint64_t setup_allocs = 0;
    double setup_total = 0.0;
    do {
      sims.clear();
      servers.clear();
      inputs_ = Inputs{};
      const std::uint64_t allocs0 = util::alloc_count();
      const auto t0 = Clock::now();
      inputs_ = build_inputs(opt_.workload, opt_.seed);
      const double build = seconds_since(t0);
      const auto t1 = Clock::now();
      construct(sims, servers, /*traced=*/false);
      const double construct_s = seconds_since(t1);
      build_s_.push_back(build);
      construct_s_.push_back(construct_s);
      setup_s_.push_back(build + construct_s);
      setup_total += build + construct_s;
      setup_allocs = util::alloc_count() - allocs0;
    } while (setup_total < kMinSetupS);
    const double scale = ReferenceKernel::kReferenceS / reference_.run();
    for (std::size_t i = reps_before; i < setup_s_.size(); ++i) {
      setup_s_[i] *= scale;
      build_s_[i] *= scale;
      construct_s_[i] *= scale;
    }
    if (passes_ == 0) {
      setup_allocs_ = setup_allocs;
      runs_.assign(num_jobs(), {});
      prepare_checks();
    }

    // Run phase. In a traced run every simulation also runs traced,
    // right after its plain run, so the two are timed side by side.
    std::vector<std::unique_ptr<Simulator>> traced;
    std::vector<std::unique_ptr<serve::ServingSimulator>> traced_servers;
    if (opt_.trace) {
      construct(traced, traced_servers, /*traced=*/true);
    }
    std::uint64_t run_allocs = 0;
    for (std::size_t j = 0; j < num_jobs(); ++j) {
      JobRun r;
      const std::uint64_t a0 = util::alloc_count();
      const auto t0 = Clock::now();
      if (j < sims.size()) {
        r.metrics = sims[j]->run();
      } else {
        r.serving = servers[j - sims.size()]->run();
        r.metrics = r.serving.sim;
      }
      r.plain_s = seconds_since(t0);
      run_allocs += util::alloc_count() - a0;
      r.reference_s = reference_.run();
      if (opt_.trace) {
        Fnv f;
        const auto t1 = Clock::now();
        if (j < traced.size()) {
          fingerprint(f, run_stepped(*traced[j], r.steps));
        } else {
          fingerprint(f, traced_servers[j - traced.size()]->run());
        }
        r.traced_s = seconds_since(t1);
        r.traced_fingerprint = f.h;
      }
      check(j, r);
      if (passes_ > 0) {
        // Only pass one's statistics are reported (later passes must
        // match them); dropping the rest keeps memory flat across passes.
        r.metrics = RunMetrics{};
        r.serving = serve::ServingMetrics{};
      }
      runs_[j].push_back(std::move(r));
    }
    if (passes_ == 0) {
      run_allocs_ = run_allocs;
    }
    peak_live_ = std::max(peak_live_, util::alloc_peak_bytes());
  }

  void construct(std::vector<std::unique_ptr<Simulator>>& sims,
                 std::vector<std::unique_ptr<serve::ServingSimulator>>& servers,
                 bool traced) {
    cache_counts_.resize(inputs_.closed.size());
    for (std::size_t j = 0; j < inputs_.closed.size(); ++j) {
      const ClosedJob& job = inputs_.closed[j];
      const Workload& w = inputs_.workloads[job.workload];
      if (traced &&
          resolve_engine(job.config, w.num_threads()) == EngineKind::kTick) {
        // Counted in situ on the tick engine only: elsewhere the decorator
        // would turn the event engine's dense layer off.
        cache_counts_[j] = CacheCounts{};
        sims.push_back(std::make_unique<Simulator>(
            w, job.config,
            std::make_unique<CountingCache>(
                std::make_unique<HbmCache>(job.config.hbm_slots,
                                           job.config.replacement),
                cache_counts_[j])));
      } else {
        sims.push_back(std::make_unique<Simulator>(w, job.config));
      }
    }
    for (const ServePoint& pt : inputs_.serve) {
      servers.push_back(std::make_unique<serve::ServingSimulator>(pt.config));
    }
  }

  void prepare_checks() {
    std::map<std::tuple<std::size_t, std::uint64_t, std::uint32_t>,
             std::uint64_t>
        memo;
    for (const ClosedJob& job : inputs_.closed) {
      const auto key = std::make_tuple(job.workload, job.config.hbm_slots,
                                       job.config.num_channels);
      if (memo.find(key) == memo.end()) {
        memo[key] = lower_bounds(inputs_.workloads[job.workload],
                                 job.config.hbm_slots, job.config.num_channels)
                        .lower();
      }
      bounds_.push_back(memo[key]);
    }
    fingerprints_.assign(num_jobs(), 0);
  }

  void check(std::size_t j, const JobRun& r) {
    checker_.job_failed = false;
    Fnv f;
    if (j < inputs_.closed.size()) {
      const ClosedJob& job = inputs_.closed[j];
      check_closed(checker_, job, inputs_.workloads[job.workload], r.metrics,
                   bounds_[j]);
      fingerprint(f, r.metrics);
    } else {
      check_serve(checker_, inputs_.serve[j - inputs_.closed.size()], r.serving);
      fingerprint(f, r.serving);
    }
    if (opt_.trace) {
      checker_.expect(r.traced_fingerprint == f.h, label(j),
                      "traced run differs from the plain run");
    }
    if (passes_ == 0) {
      fingerprints_[j] = f.h;
    } else {
      checker_.expect(f.h == fingerprints_[j], label(j),
                      "simulated statistics differ from the first pass");
    }
    ++attempted_;
    failed_ += checker_.job_failed ? 1 : 0;
  }

  /// Simulation j's machine configuration and thread count (serving
  /// points: their worker count).
  [[nodiscard]] const SimConfig& config(std::size_t j) const {
    return j < inputs_.closed.size()
               ? inputs_.closed[j].config
               : inputs_.serve[j - inputs_.closed.size()].config.sim;
  }
  [[nodiscard]] std::uint32_t threads(std::size_t j) const {
    return j < inputs_.closed.size()
               ? static_cast<std::uint32_t>(
                     inputs_.workloads[inputs_.closed[j].workload].num_threads())
               : inputs_.serve[j - inputs_.closed.size()].config.total_workers();
  }

  [[nodiscard]] std::string label(std::size_t j) const {
    return j < inputs_.closed.size() ? inputs_.closed[j].label
                                     : inputs_.serve[j - inputs_.closed.size()].label;
  }

  /// Median of one host time of job j over the timed passes: every pass
  /// but the first, which warms caches and the allocator.
  template <typename Field>
  [[nodiscard]] double median_over_passes(std::size_t j, Field field) const {
    std::vector<double> v;
    for (std::size_t i = runs_[j].size() > 1 ? 1 : 0; i < runs_[j].size(); ++i) {
      v.push_back(field(runs_[j][i]));
    }
    return median(std::move(v));
  }

  /// Job j's run time in reference seconds (see ReferenceKernel).
  [[nodiscard]] double plain_s(std::size_t j) const {
    return median_over_passes(j, [](const JobRun& r) {
      return r.plain_s * ReferenceKernel::kReferenceS / r.reference_s;
    });
  }

  /// Job j's run time in host seconds.
  [[nodiscard]] double host_s(std::size_t j) const {
    return median_over_passes(j, [](const JobRun& r) { return r.plain_s; });
  }

  void report_results() {
    Fnv all;
    for (std::size_t j = 0; j < num_jobs(); ++j) {
      const JobRun& r = runs_[j].front();
      std::printf("job %-24s engine=%-5s refs=%" PRIu64 " makespan=%" PRIu64
                  " hits=%" PRIu64 " run_s=%.4f fingerprint=%016" PRIx64 "\n",
                  label(j).c_str(), to_string(resolve_engine(config(j), threads(j))),
                  r.metrics.total_refs, r.metrics.makespan, r.metrics.hits,
                  host_s(j), fingerprints_[j]);
      all.add(fingerprints_[j]);
    }
    std::printf("workload %s seed=%" PRIu64 " passes=%d run_s_per_pass=%.3f"
                " fingerprint=%016" PRIx64 "\n",
                opt_.workload.c_str(), opt_.seed, passes_, total_run_s(true), all.h);
  }

  // ---- metrics ----

  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };

  void print_metrics(const std::vector<Metric>& metrics) const {
    for (const Metric& m : metrics) {
      std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                checker_.failed_checks == 0 ? "true" : "false", attempted_,
                failed_);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    }
    std::printf("}}\n");
  }

  [[nodiscard]] std::uint64_t total_refs() const {
    std::uint64_t refs = 0;
    for (const auto& runs : runs_) {
      refs += runs.front().metrics.total_refs;
    }
    return refs;
  }

  /// Median time of the reference kernel over the timed passes.
  [[nodiscard]] double median_reference_s() const {
    std::vector<double> v;
    for (std::size_t j = 0; j < num_jobs(); ++j) {
      v.push_back(median_over_passes(j, [](const JobRun& r) { return r.reference_s; }));
    }
    return median(std::move(v));
  }

  /// Sum over the simulations of their median run time, in reference
  /// seconds, or with `host` in host seconds.
  [[nodiscard]] double total_run_s(bool host = false) const {
    double s = 0.0;
    for (std::size_t j = 0; j < num_jobs(); ++j) {
      s += host ? host_s(j) : plain_s(j);
    }
    return s;
  }

  struct SloSummary {
    double p99_rho50 = 0.0;
    double p99_rho90 = 0.0;
    double max_rho = 0.0;
    double failed_frac = 0.0;
  };

  /// serve_slo's SLO metrics: the interactive tenant's p99 at ρ = 0.5 and
  /// 0.9, the highest ladder load up to which every point meets the SLO
  /// at p99 without rejections, and the share of arrivals rejected or
  /// late over all points.
  [[nodiscard]] SloSummary slo_summary() const {
    SloSummary s;
    std::uint64_t arrivals = 0;
    std::uint64_t missed = 0;
    bool holding = true;
    for (std::size_t i = 0; i < inputs_.serve.size(); ++i) {
      const ServePoint& pt = inputs_.serve[i];
      const serve::ServingMetrics& m =
          runs_[inputs_.closed.size() + i].front().serving;
      const serve::TenantMetrics& interactive = m.per_tenant.front();
      for (const serve::TenantMetrics& t : m.per_tenant) {
        arrivals += t.arrivals;
        missed += t.rejected + t.slo_violations;
      }
      if (!pt.on_ladder) {
        continue;
      }
      const double p99 = interactive.latency_quantile(0.99);
      if (std::abs(pt.rho - 0.5) < 1e-9) {
        s.p99_rho50 = p99;
      }
      if (std::abs(pt.rho - 0.9) < 1e-9) {
        s.p99_rho90 = p99;
      }
      holding = holding && p99 <= static_cast<double>(kInteractiveSlo) &&
                m.total_rejected() == 0;
      if (holding) {
        s.max_rho = pt.rho;
      }
    }
    s.failed_frac = arrivals == 0 ? 0.0
                                  : static_cast<double>(missed) /
                                        static_cast<double>(arrivals);
    return s;
  }

  void report_end_to_end() const {
    double makespan = 0.0;
    double mean_response = 0.0;
    double inconsistency = 0.0;
    for (const auto& runs : runs_) {
      const RunMetrics& m = runs.front().metrics;
      makespan += static_cast<double>(m.makespan);
      mean_response += m.mean_response();
      inconsistency += m.inconsistency();
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    if (!inputs_.serve.empty()) {
      const SloSummary s = slo_summary();
      std::printf("slo p99_ticks_rho50 %.6g ticks\nslo p99_ticks_rho90 %.6g ticks\n"
                  "slo max_rho_slo %.6g rho\nslo failed_frac %.6g ratio\n",
                  s.p99_rho50, s.p99_rho90, s.max_rho, s.failed_frac);
    }
    std::printf("host refs_per_s %.6g 1/s (reference kernel %.4g ms, nominal "
                "%.4g ms)\n",
                static_cast<double>(total_refs()) / total_run_s(true),
                1e3 * median_reference_s(), 1e3 * ReferenceKernel::kReferenceS);
    print_metrics({
        {"refs_per_s", static_cast<double>(total_refs()) / total_run_s(), "1/s"},
        {"setup_s", median(setup_s_), "s"},
        {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
        {"makespan_ticks", makespan, "ticks"},
        {"mean_response_ticks", mean_response, "ticks"},
        {"inconsistency_ticks", inconsistency, "ticks"},
    });
  }

  void report_layers() const;

  Options opt_;
  ReferenceKernel reference_;
  std::vector<int> cpus_;  ///< CPUs the process may run on, at start
  Inputs inputs_;
  double floor_ns_ = 0.0;
  int passes_ = 0;
  std::vector<std::vector<JobRun>> runs_;
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> fingerprints_;
  std::vector<double> setup_s_, build_s_, construct_s_;
  std::uint64_t setup_allocs_ = 0;
  std::uint64_t run_allocs_ = 0;
  std::uint64_t peak_live_ = 0;
  /// In-situ cache call counts of each traced tick-engine simulation
  /// (zero elsewhere); every pass overwrites them with identical counts.
  std::vector<CacheCounts> cache_counts_;
  Checker checker_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void Bench::report_layers() const {
  // Work per layer is exact: the simulated statistics of pass one, and
  // in-situ call counts where the counting decorator ran. Each layer's
  // time is its work times a unit cost replayed on the simulation's own
  // data (its workload, k, p, q and policy).
  const std::uint64_t kReplayRefs = 2'000'000;
  std::uint64_t refs = 0, hits = 0, probes = 0, touches = 0, inserts = 0,
                evictions = 0, enqueues = 0, pops = 0, remaps = 0,
                stats_adds = 0, executed = 0, skipped = 0, idle = 0, steps = 0,
                arrivals = 0, admitted = 0, rejected = 0, completed = 0;
  double step_s = 0.0, traced_s = 0.0, trace_ns = 0.0, probe_ns = 0.0,
         touch_ns = 0.0, insert_ns = 0.0, enqueue_ns = 0.0, pop_ns = 0.0,
         remap_ns = 0.0;
  std::map<std::size_t, double> next_ns;  // per workload
  std::map<std::tuple<std::size_t, std::uint64_t, ReplacementKind>, CacheCost>
      cache_costs;
  // serve_slo's workers run request traces the serving layer materializes;
  // replays use traces of the tenants' shapes, one per worker.
  const std::size_t kRequests = inputs_.workloads.size();
  std::optional<Workload> requests;
  if (!inputs_.serve.empty()) {
    const serve::ServingConfig& sc = inputs_.serve.front().config;
    std::vector<std::shared_ptr<const Trace>> traces;
    for (std::size_t i = 0; i < sc.tenants.size(); ++i) {
      const serve::TenantSpec& t = sc.tenants[i];
      for (std::uint32_t w = 0; w < t.workers; ++w) {
        traces.push_back(std::make_shared<Trace>(workloads::make_zipf_trace(
            t.shape.pages, kReplayRefs / sc.total_workers(), t.shape.zipf_s,
            opt_.seed + w + 16 * i)));
      }
    }
    requests.emplace(std::move(traces));
  }

  for (std::size_t j = 0; j < num_jobs(); ++j) {
    const JobRun& first = runs_[j].front();
    const RunMetrics& m = first.metrics;
    const bool is_serve = j >= inputs_.closed.size();
    const SimConfig& c = config(j);
    const std::size_t source = is_serve ? kRequests : inputs_.closed[j].workload;
    const Workload& w = is_serve ? *requests : inputs_.workloads[source];

    refs += m.total_refs;
    hits += m.hits;
    evictions += m.evictions;
    stats_adds += m.total_refs * (1 + (c.response_histogram ? 1 : 0) +
                                  (c.per_thread_metrics ? 1 : 0));
    const Tick end = is_serve ? first.serving.horizon : m.makespan;
    executed += end - m.skipped_ticks;
    skipped += m.skipped_ticks;
    idle += m.idle_ticks;
    steps += first.steps.steps;
    step_s += median_over_passes(j, [](const JobRun& r) { return r.steps.step_s; });
    traced_s += median_over_passes(j, [](const JobRun& r) { return r.traced_s; });
    if (is_serve) {
      for (const serve::TenantMetrics& t : first.serving.per_tenant) {
        arrivals += t.arrivals;
        admitted += t.admitted;
        rejected += t.rejected;
        completed += t.completed;
        stats_adds += 2 * t.completed;  // latency Welford + histogram
      }
    }

    if (next_ns.find(source) == next_ns.end()) {
      next_ns[source] = replay_trace_ns(w, kReplayRefs);
    }
    trace_ns += static_cast<double>(m.total_refs) * next_ns[source];

    // The model's cache calls: a probe per issued reference and per
    // fetched re-probe, a touch per served reference, an insert per fetch.
    const bool counted = !is_serve && cache_counts_[j].probes != 0;
    const CacheCounts calls =
        counted ? cache_counts_[j]
                : CacheCounts{m.total_refs + m.misses + m.requeues, m.total_refs,
                              m.fetches};
    const auto key = std::make_tuple(source, c.hbm_slots, c.replacement);
    if (cache_costs.find(key) == cache_costs.end()) {
      cache_costs[key] = replay_cache(w, c.hbm_slots, c.replacement, kReplayRefs);
    }
    const CacheCost& cache = cache_costs[key];
    probes += calls.probes;
    touches += calls.touches;
    inserts += calls.inserts;
    probe_ns += static_cast<double>(calls.probes) * cache.probe_ns;
    touch_ns += static_cast<double>(calls.touches) * cache.touch_ns;
    insert_ns += static_cast<double>(calls.inserts) * cache.insert_ns;

    // Mean queue depth by Little's law over the misses' queueing delay.
    const double queued = std::max(
        0.0, m.response.mean() * static_cast<double>(m.total_refs) -
                 static_cast<double>(m.total_refs) -
                 static_cast<double>(m.misses) * c.fetch_ticks);
    const auto depth = static_cast<std::size_t>(
        std::llround(queued / std::max(1.0, static_cast<double>(end))));
    const ArbiterCost arbiter = replay_arbiter(c, threads(j), depth, floor_ns_);
    const std::uint64_t e = m.misses + m.requeues;
    enqueues += e;
    pops += m.fetches;
    remaps += m.remaps;
    enqueue_ns += static_cast<double>(e) * arbiter.enqueue_ns;
    pop_ns += static_cast<double>(m.fetches) * arbiter.pop_ns;
    remap_ns += static_cast<double>(m.remaps) * arbiter.remap_ns;
  }
  const double plain_ns = total_run_s(true) * 1e9;
  const double cache_ns = probe_ns + touch_ns + insert_ns;
  const double arbiter_ns = enqueue_ns + pop_ns + remap_ns;
  const double stats_ns = replay_stats_ns();
  double arrival_ns = 0.0;
  if (!inputs_.serve.empty()) {
    // The middle of the ladder, tenant 0's stream.
    const ServePoint& mid = inputs_.serve[inputs_.serve.size() / 2];
    arrival_ns = replay_arrivals_ns(mid.config.tenants.front().arrival, opt_.seed);
  }

  const double stat_ns = static_cast<double>(stats_adds) * stats_ns;
  const double serve_ns = static_cast<double>(arrivals) * arrival_ns;
  const double layers_ns = trace_ns + cache_ns + arbiter_ns + stat_ns + serve_ns;
  // Engine self time: time inside step() with the tracing overhead
  // (traced minus plain run time) taken out, less the layers it calls.
  // Only closed workloads expose step(); serve_slo's engine stays
  // unattributed.
  const double overhead_ns = traced_s * 1e9 - plain_ns;
  const double engine_ns =
      steps == 0 ? 0.0 : std::max(0.0, step_s * 1e9 - overhead_ns - layers_ns);
  const auto share = [&](double ns) { return ns / plain_ns; };
  const SloSummary slo = inputs_.serve.empty() ? SloSummary{} : slo_summary();
  const auto per = [](double ns, std::uint64_t n) {
    return n == 0 ? 0.0 : ns / static_cast<double>(n);
  };

  print_metrics({
      {"trace.next_calls", static_cast<double>(refs), "count"},
      {"trace.ns_per_next", per(trace_ns, refs), "ns"},
      {"trace.share", share(trace_ns), "ratio"},
      {"cache.probes", static_cast<double>(probes), "count"},
      {"cache.hits", static_cast<double>(hits), "count"},
      {"cache.inserts", static_cast<double>(inserts), "count"},
      {"cache.evictions", static_cast<double>(evictions), "count"},
      {"cache.hit_ratio", refs == 0 ? 0.0 : static_cast<double>(hits) / refs,
       "ratio"},
      {"cache.ns_per_probe", per(probe_ns, probes), "ns"},
      {"cache.ns_per_touch", per(touch_ns, touches), "ns"},
      {"cache.ns_per_insert", per(insert_ns, inserts), "ns"},
      {"cache.share", share(cache_ns), "ratio"},
      {"arbiter.enqueues", static_cast<double>(enqueues), "count"},
      {"arbiter.pops", static_cast<double>(pops), "count"},
      {"arbiter.remaps", static_cast<double>(remaps), "count"},
      {"arbiter.ns_per_enqueue", per(enqueue_ns, enqueues), "ns"},
      {"arbiter.ns_per_pop", per(pop_ns, pops), "ns"},
      {"arbiter.ns_per_remap", per(remap_ns, remaps), "ns"},
      {"arbiter.share", share(arbiter_ns), "ratio"},
      {"stats.adds", static_cast<double>(stats_adds), "count"},
      {"stats.ns_per_add", stats_ns, "ns"},
      {"stats.share", share(stat_ns), "ratio"},
      {"engine.steps", static_cast<double>(steps), "count"},
      {"engine.ticks_per_step", per(static_cast<double>(executed), steps), "ticks"},
      {"engine.ns_per_step", per(step_s * 1e9 - overhead_ns, steps), "ns"},
      {"engine.executed_ticks", static_cast<double>(executed), "ticks"},
      {"engine.skipped_ticks", static_cast<double>(skipped), "ticks"},
      {"engine.idle_ticks", static_cast<double>(idle), "ticks"},
      {"engine.self_share", share(engine_ns), "ratio"},
      {"serve.arrivals", static_cast<double>(arrivals), "count"},
      {"serve.admitted", static_cast<double>(admitted), "count"},
      {"serve.rejected", static_cast<double>(rejected), "count"},
      {"serve.completed", static_cast<double>(completed), "count"},
      {"serve.ns_per_arrival", arrival_ns, "ns"},
      {"serve.ns_per_request", per(inputs_.serve.empty() ? 0.0 : plain_ns, completed),
       "ns"},
      {"serve.p99_ticks_rho50", slo.p99_rho50, "ticks"},
      {"serve.p99_ticks_rho90", slo.p99_rho90, "ticks"},
      {"serve.max_rho_slo", slo.max_rho, "rho"},
      {"serve.failed_frac", slo.failed_frac, "ratio"},
      {"setup.workload_build_s", median(build_s_), "s"},
      {"setup.sim_construct_s", median(construct_s_), "s"},
      {"alloc.setup_allocs", static_cast<double>(setup_allocs_), "count"},
      {"alloc.run_allocs", static_cast<double>(run_allocs_), "count"},
      {"alloc.peak_live_mib", static_cast<double>(peak_live_) / (1024.0 * 1024.0),
       "MiB"},
      {"bench.trace_overhead", traced_s * 1e9 / plain_ns - 1.0, "ratio"},
      {"bench.host_refs_per_s", static_cast<double>(refs) * 1e9 / plain_ns, "1/s"},
      {"bench.reference_ms", 1e3 * median_reference_s(), "ms"},
      {"bench.attributed_share", share(layers_ns + engine_ns), "ratio"},
  });
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                                value) != std::end(kWorkloads);
      if (!have_workload) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbmsim_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return Bench(opt).run();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "hbmsim_perfbench: %s\n", e.what());
    return 3;
  }
}
