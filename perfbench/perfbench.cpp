// Measurement runner of the N-body benchmark (see README.md next to this
// file for the workloads, metrics and how they were made steady).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out FILE --scratch DIR
//
// Runs one workload through the public API (nbody::ParallelLeapfrog over
// hot::GravityEngine on a vmpi::Runtime with the Space Simulator
// ClusterTimeModel) and writes the raw samples — set-up times, per-step
// host and virtual times, the force-check sample, per-step layer
// counters and host spans — as one JSON document to FILE. The arithmetic
// that turns samples into metrics lives in metrics.py, so it is tested
// in one place. Exit codes: 0 measured (correctness is judged from the
// document), 2 usage error, 3 thread budget exceeds the host.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gravity/batch.hpp"
#include "gravity/kernels.hpp"
#include "hot/decomp.hpp"
#include "hot/parallel.hpp"
#include "hot/tree.hpp"
#include "io/checkpoint.hpp"
#include "morton/key.hpp"
#include "morton/sort.hpp"
#include "nbody/checkpoint.hpp"
#include "nbody/ic.hpp"
#include "nbody/integrator.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "simd/isa.hpp"
#include "simnet/profile.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/task_pool.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/timemodel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ss;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Workload {
  const char* name;
  int ranks;
  int pool;  ///< Global task-pool size (1 = every op runs inline).
  int n;
  bool plummer;  ///< Plummer sphere; else the Table 6 cold sphere.
  hot::FarField far_field;
  double theta;
  int p_order;
  std::uint32_t bucket;
  bool lossy;  ///< Seeded LinkFaultModel under the reliable transport.
  int checkpoint_every;  ///< Async checkpoint generation cadence (0 = none).
  double force_ceiling;  ///< Largest acceptable force_rms_error().
};

// Force ceilings: about twice the largest error measured over seeds 1-10
// at the parent commit (treecode 1.78-1.85e-3 on the cold sphere, FMM
// 7.0-7.9e-8 on Plummer), so a kernel or MAC change that loses accuracy
// fails the gate.
constexpr Workload kWorkloads[] = {
    {"solo_fmm", 1, 4, 32768, true, hot::FarField::fmm, 1.2, 6, 64, false, 0,
     1.5e-7},
    {"cluster_tree", 4, 1, 65536, false, hot::FarField::treecode, 0.6, 4, 16,
     false, 0, 3.5e-3},
    {"cluster_lossy_ckpt", 4, 1, 65536, false, hot::FarField::treecode, 0.6,
     4, 16, true, 4, 3.5e-3},
};

constexpr double kEps2 = 1e-6;
// Small enough that the configuration, and with it the work per step,
// barely changes over a run: every timed step measures the same work.
constexpr double kDt = 1e-3;
constexpr double kFlopRate = 623.9e6;  // fig7's LAM-profile node rate
constexpr int kSetupRepeats = 3;
// 11 steps put 10 samples above the tail order statistic.
constexpr int kMinTimedSteps = 11;
// vtime_step_s is the median over this fixed window of first timed steps,
// so it does not depend on how many steps the host managed.
constexpr int kVtimeWindow = 11;
constexpr int kMinTracedSteps = 2;
constexpr int kForceSamples = 32768;
constexpr std::size_t kP2pTile = 2048;
constexpr std::size_t kP2pTargets = 64;
constexpr int kP2pRepeats = 32;

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Plummer bodies lie within 20 scale radii (3 pi / 16 each) of the
// center; the pinning pair sits just outside that on the cube's diagonal.
constexpr double kPlummerPin = 12.0;

/// The workload's bodies for `seed`. The Plummer sphere is sampled in
/// point-symmetric pairs plus one pinning pair at opposite corners of a
/// fixed cube, so every seed gets the same bounding cube with the core at
/// its center: the top of the tree, and with it the FMM's parallel
/// subtree frontier, is then the same for every seed, and only the
/// realization inside varies. Left free, the outermost bodies move the
/// core across top-level cells and pool utilization swings between seeds.
std::vector<nbody::Body> make_bodies(const Workload& w, std::uint64_t seed) {
  support::Rng rng(seed);
  if (!w.plummer) return nbody::cold_sphere(w.n, rng);
  auto bodies = nbody::plummer_sphere(w.n / 2 - 1, rng);
  nbody::Body pin;
  pin.pos = {kPlummerPin, kPlummerPin, kPlummerPin};
  bodies.push_back(pin);
  const std::size_t half = bodies.size();
  for (std::size_t i = 0; i < half; ++i) {
    nbody::Body b = bodies[i];
    b.pos = -1.0 * b.pos;
    b.vel = -1.0 * b.vel;
    bodies.push_back(b);
  }
  for (auto& b : bodies) b.mass = 1.0 / static_cast<double>(bodies.size());
  return bodies;
}

hot::ParallelConfig engine_config(const Workload& w) {
  hot::ParallelConfig cfg;
  cfg.theta = w.theta;
  cfg.eps2 = kEps2;
  cfg.far_field = w.far_field;
  cfg.p_order = w.p_order;
  cfg.tree.bucket_size = w.bucket;
  // pool_threads stays 0: main() sizes the process-global pool once.
  return cfg;
}

bool all_finite(const std::vector<gravity::Accel>& acc) {
  for (const auto& a : acc) {
    if (!std::isfinite(a.a.x) || !std::isfinite(a.a.y) ||
        !std::isfinite(a.a.z)) {
      return false;
    }
  }
  return true;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_state(const nbody::ParallelLeapfrog::State& a,
                const nbody::ParallelLeapfrog::State& b) {
  return same_bytes(a.bodies, b.bodies) && same_bytes(a.acc, b.acc) &&
         same_bytes(a.work, b.work) && same_bytes(a.ledger, b.ledger) &&
         std::memcmp(&a.time, &b.time, sizeof(double)) == 0;
}

/// Host spans of one rank, kept in memory until the run ends.
struct Span {
  int step;
  int id;
  int parent;  ///< -1 for a root span.
  const char* name;
  double t0, t1;  ///< Seconds since the segment's origin.
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  int begin(const char* name, int step, int parent = -1) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({step, id, parent, name, now(), 0.0});
    return id;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].t1 = now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Layer counters of one traced step on one rank (read from outside).
struct StepRecord {
  int step = 0;
  hot::ParallelStats engine;
  std::uint64_t msgs = 0, bytes = 0;  ///< vmpi deltas around the engine step.
  std::uint64_t decompose_bytes = 0;
  std::uint64_t cells = 0;
  hot::FmmStats fmm;
  double p2p_per_s = 0.0;
  // Pool deltas over the engine window (rank 0 only; the pool is global).
  std::uint64_t pool_run = 0, pool_stolen = 0, pool_failed = 0;
  double pool_busy_s = 0.0, pool_wall_s = 0.0;
};

struct PoolMark {
  support::TaskPool::Stats stats;
  Clock::time_point t;
};

Clock::time_point g_pool_origin;  // when main() constructed the global pool

PoolMark pool_mark() {
  return {support::TaskPool::global().stats(), Clock::now()};
}

/// Pool busy seconds since construction, recovered from its cumulative
/// utilization figure (busy / (wall * size)).
double pool_busy(const PoolMark& m) {
  return m.stats.utilization * seconds_between(g_pool_origin, m.t) *
         support::TaskPool::global().size();
}

enum class Mode { setup_only, timed, traced };

/// Everything one Runtime session produces.
struct Session {
  double setup_s = 0.0;
  int steps = 0;
  double timed_wall_s = 0.0;
  std::vector<double> step_wall_s;  ///< Rank 0, barrier to barrier.
  std::vector<std::vector<double>> rank_vclock;  ///< Post-barrier vtimes.
  std::vector<std::vector<char>> rank_bad;       ///< Non-finite step flags.
  std::vector<std::vector<gravity::Source>> sample_pos;  ///< Force check.
  std::vector<std::vector<gravity::Accel>> sample_acc;
  std::vector<char> restore_ok;  ///< Per rank; empty without checkpoints.
  int evaluations = 0;           ///< Engine evaluations incl. the cold one.
  vmpi::NetTotals net;
  // Traced mode only.
  std::vector<SpanLog> logs;
  std::vector<std::vector<StepRecord>> records;
  std::vector<io::AsyncWriter::Stats> io_stats;
  std::vector<std::uint64_t> saves;
  std::unique_ptr<obs::Session> obs;
};

/// One Runtime::run: set-up (ICs, runtime, engine, cold evaluation), then
/// closed-loop steps for `seconds` unless `mode` is setup_only.
void run_session(const Workload& w, std::uint64_t seed, Mode mode,
                 double seconds, const std::filesystem::path& scratch,
                 Session& out) {
  const auto P = static_cast<std::size_t>(w.ranks);
  out.rank_vclock.assign(P, {});
  out.rank_bad.assign(P, {});
  out.sample_pos.assign(P, {});
  out.sample_acc.assign(P, {});
  const bool checkpoints = w.checkpoint_every > 0 && mode != Mode::setup_only;
  if (checkpoints) out.restore_ok.assign(P, 0);
  const Clock::time_point origin = Clock::now();
  if (mode == Mode::traced) {
    out.logs.assign(P, SpanLog(origin));
    out.records.assign(P, {});
    out.io_stats.assign(P, {});
    out.saves.assign(P, 0);
    out.obs = std::make_unique<obs::Session>(w.ranks);
  }
  const std::filesystem::path ckpt_dir = scratch / "ckpt";
  if (checkpoints) std::filesystem::remove_all(ckpt_dir);

  // --- set-up: ICs, runtime, engine construction, cold evaluation ---
  const auto t_setup = Clock::now();
  const std::vector<nbody::Body> ics = make_bodies(w, seed);
  vmpi::Runtime rt(w.ranks, vmpi::make_space_simulator_model(
                                simnet::lam_homogeneous(), kFlopRate));
  if (w.lossy) {
    vmpi::FaultRates rates;
    rates.drop = 0.01;
    rates.duplicate = 0.005;
    rates.corrupt = 0.005;
    rates.reorder = 0.01;
    rt.set_fault_model(std::make_shared<vmpi::LinkFaultModel>(
        w.ranks, seed * 0x9e3779b97f4a7c15ULL + 1, rates));
  }
  if (out.obs) rt.attach_observer(out.obs.get());
  const hot::ParallelConfig cfg = engine_config(w);
  std::atomic<bool> stop{false};

  rt.run([&](vmpi::Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const std::size_t n = ics.size();
    std::vector<nbody::Body> mine(
        ics.begin() + static_cast<std::ptrdiff_t>(n * r / P),
        ics.begin() + static_cast<std::ptrdiff_t>(n * (r + 1) / P));
    nbody::ParallelLeapfrog lf(c, std::move(mine), cfg);
    c.barrier();
    if (r == 0) out.setup_s = seconds_between(t_setup, Clock::now());
    if (mode == Mode::setup_only) return;

    // Force-check sample: a seeded stride through this rank's bodies at
    // the cold evaluation (per-rank share of kForceSamples).
    {
      const auto& bodies = lf.bodies();
      const std::size_t want = std::max<std::size_t>(1, kForceSamples / P);
      const std::size_t stride = std::max<std::size_t>(1, bodies.size() / want);
      for (std::size_t i = seed % stride; i < bodies.size(); i += stride) {
        out.sample_pos[r].push_back({bodies[i].pos, bodies[i].mass});
        out.sample_acc[r].push_back(lf.accel()[i]);
      }
    }

    std::unique_ptr<io::CheckpointStore> store;
    if (checkpoints) {
      store = std::make_unique<io::CheckpointStore>(
          c, io::CheckpointStore::Config{.dir = ckpt_dir, .keep = 2});
    }
    nbody::ParallelLeapfrog::State saved;
    std::uint64_t saved_step = 0;

    const bool traced = mode == Mode::traced;
    SpanLog* log = traced ? &out.logs[r] : nullptr;
    hot::Tree probe_tree(cfg.tree);
    // A traced lossy run still needs one committed generation to restore.
    const int min_steps =
        traced ? std::max(kMinTracedSteps, w.checkpoint_every) : kMinTimedSteps;

    c.barrier();
    out.rank_vclock[r].push_back(c.time());
    const auto t0 = Clock::now();
    auto t_prev = t0;
    for (int s = 0;; ++s) {
      StepRecord rec;
      rec.step = s;
      PoolMark pool0;
      int step_span = -1;
      if (traced) {
        // The previous step's probes are done on every rank: the window
        // up to the end barrier holds engine work only.
        c.barrier();
        if (r == 0) pool0 = pool_mark();
        step_span = log->begin("step", s);
      }
      const std::uint64_t m0 = c.sent_messages();
      const std::uint64_t b0 = c.sent_bytes();
      {
        const int id =
            traced ? log->begin("hot.engine_step", s, step_span) : -1;
        lf.step(kDt);
        if (traced) log->end(id);
      }
      rec.msgs = c.sent_messages() - m0;
      rec.bytes = c.sent_bytes() - b0;
      rec.engine = lf.last_stats();
      out.rank_bad[r].push_back(all_finite(lf.accel()) ? 0 : 1);
      if (store && (s + 1) % w.checkpoint_every == 0) {
        const int id = traced ? log->begin("io.save", s, step_span) : -1;
        nbody::save_checkpoint(*store, static_cast<std::uint64_t>(s + 1), lf);
        if (traced) log->end(id);
        saved = lf.checkpoint_state();
        saved_step = static_cast<std::uint64_t>(s + 1);
      }
      if (r == 0) {
        stop.store(seconds_between(t0, Clock::now()) >= seconds &&
                   s + 1 >= min_steps);
      }
      {
        const int id = traced ? log->begin("vmpi.barrier", s, step_span) : -1;
        c.barrier();
        if (traced) log->end(id);
      }
      out.rank_vclock[r].push_back(c.time());
      if (r == 0) {
        const auto t = Clock::now();
        out.step_wall_s.push_back(seconds_between(t_prev, t));
        t_prev = t;
      }
      if (traced) {
        log->end(step_span);
        if (r == 0) {
          const PoolMark pool1 = pool_mark();
          rec.pool_run = pool1.stats.tasks_run - pool0.stats.tasks_run;
          rec.pool_stolen =
              pool1.stats.tasks_stolen - pool0.stats.tasks_stolen;
          rec.pool_failed =
              pool1.stats.steals_failed - pool0.stats.steals_failed;
          rec.pool_busy_s = pool_busy(pool1) - pool_busy(pool0);
          rec.pool_wall_s = seconds_between(pool0.t, pool1.t);
        }
        // Probes: each layer's public entry point on this step's inputs.
        const auto src = nbody::sources_of(lf.bodies());
        const auto state = lf.checkpoint_state();
        const int probe = log->begin("probe", s);
        int id = log->begin("hot.decompose", s, probe);
        const std::uint64_t db0 = c.sent_bytes();
        const morton::Box box = hot::global_box(c, src);
        hot::decompose(c, src, state.work, box);
        rec.decompose_bytes = c.sent_bytes() - db0;
        log->end(id);

        std::vector<morton::Key> keys(src.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
          keys[i] = morton::encode(src[i].pos, box);
        }
        id = log->begin("morton.sort", s, probe);
        morton::radix_sort_permutation(keys);
        log->end(id);

        id = log->begin("hot.build", s, probe);
        probe_tree.rebuild(src, box);
        log->end(id);
        rec.cells = probe_tree.cell_count();

        if (w.far_field == hot::FarField::fmm) {
          hot::AccelParams params;
          params.theta = cfg.theta;
          params.eps2 = cfg.eps2;
          params.method = cfg.method;
          params.far_field = hot::FarField::fmm;
          params.p_order = cfg.p_order;
          params.use_simd = cfg.batch_interactions && cfg.simd_kernels;
          id = log->begin("hot.fmm", s, probe);
          probe_tree.accelerate_fmm_all(params, &rec.fmm);
          log->end(id);
        }

        const std::size_t tile_n = std::min(kP2pTile, src.size());
        const auto tile = gravity::SourcesSoA::from(
            std::span<const gravity::Source>(src.data(), tile_n));
        const std::size_t tstride =
            std::max<std::size_t>(1, src.size() / kP2pTargets);
        std::uint64_t interactions = 0;
        id = log->begin("gravity.p2p", s, probe);
        const auto tp0 = Clock::now();
        for (int rep = 0; rep < kP2pRepeats; ++rep) {
          for (std::size_t i = 0; i < src.size(); i += tstride) {
            gravity::interact_bodies_simd(src[i].pos, tile, cfg.eps2);
            interactions += tile_n;
          }
        }
        rec.p2p_per_s = static_cast<double>(interactions) /
                        seconds_between(tp0, Clock::now());
        log->end(id);
        log->end(probe);
        out.records[r].push_back(rec);
      }
      if (stop.load()) break;
    }
    if (r == 0) {
      out.steps = static_cast<int>(out.step_wall_s.size());
      out.timed_wall_s = seconds_between(t0, t_prev);
      out.evaluations = out.steps + 1;
    }

    if (store) {
      store->finalize();
      if (traced) {
        out.io_stats[r] = store->io_stats();
        out.saves[r] =
            saved_step / static_cast<std::uint64_t>(w.checkpoint_every);
      }
      // The last committed generation must restore bit for bit.
      const auto restored = nbody::restore_checkpoint(*store, c);
      out.restore_ok[r] = restored && restored->step == saved_step &&
                          same_state(restored->state, saved);
    }
  });
  out.net = rt.net_totals();
  if (checkpoints) std::filesystem::remove_all(ckpt_dir);
}

/// Force error of the cold evaluation against direct summation (libm
/// kernel) over every body: RMS error normalized by the RMS force,
/// sqrt(sum |a - a_ref|^2 / sum |a_ref|^2). Per-body relative errors are
/// heavy-tailed on the cold sphere (|a| -> 0 at its center), so their RMS
/// moves by tens of percent between seeds; this form does not. Runs after
/// the measured session, so it may use every CPU.
double force_rms_error(const Session& s, const std::vector<nbody::Body>& ics,
                       int threads) {
  const auto sources = nbody::sources_of(ics);
  std::vector<gravity::Source> pos;
  std::vector<gravity::Accel> acc;
  for (std::size_t r = 0; r < s.sample_pos.size(); ++r) {
    pos.insert(pos.end(), s.sample_pos[r].begin(), s.sample_pos[r].end());
    acc.insert(acc.end(), s.sample_acc[r].begin(), s.sample_acc[r].end());
  }
  std::vector<double> err2(pos.size()), ref2(pos.size());
  {
    std::vector<std::jthread> pool;  // joined when the scope ends
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < pos.size();
             i += static_cast<std::size_t>(threads)) {
          const auto ref = gravity::interact<gravity::RsqrtMethod::libm>(
              pos[i].pos, sources, kEps2);
          err2[i] = (acc[i].a - ref.a).norm2();
          ref2[i] = ref.a.norm2();
        }
      });
    }
  }
  double e = 0.0, f = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    e += err2[i];
    f += ref2[i];
  }
  return f > 0.0 ? std::sqrt(e / f) : std::nan("");
}

/// Per-step max-over-ranks virtual step time, barrier to barrier.
std::vector<double> vtime_steps(const Session& s) {
  std::vector<double> out;
  double prev = 0.0;
  const std::size_t steps =
      s.rank_vclock.empty() ? 0 : s.rank_vclock[0].size();
  for (std::size_t k = 0; k < steps; ++k) {
    double t = 0.0;
    for (const auto& v : s.rank_vclock) t = std::max(t, v[k]);
    if (k > 0) out.push_back(t - prev);
    prev = t;
  }
  return out;
}

int failed_steps(const Session& s) {
  const std::size_t steps = s.rank_bad.empty() ? 0 : s.rank_bad[0].size();
  int failed = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    bool bad = false;
    for (const auto& v : s.rank_bad) bad = bad || (k < v.size() && v[k] != 0);
    failed += bad ? 1 : 0;
  }
  return failed;
}

void write_doubles(support::json::Writer& j, std::string_view key,
                   const std::vector<double>& v) {
  j.key(key);
  j.begin_array();
  for (double x : v) j.value(x);
  j.end_array();
}

void write_record(support::json::Writer& j, int rank, const StepRecord& r) {
  const auto& e = r.engine;
  j.begin_object();
  j.kv("rank", rank);
  j.kv("step", r.step);
  j.kv("body_interactions", e.traverse.body_interactions);
  j.kv("cell_interactions", e.traverse.cell_interactions);
  j.kv("remote_requests", e.remote_requests);
  j.kv("walks_parked", e.walks_parked);
  j.kv("requests_deduped", e.requests_deduped);
  j.kv("prefetch_issued", e.prefetch_issued);
  j.kv("prefetch_hits", e.prefetch_hits);
  j.kv("sibling_pushes", e.sibling_pushes);
  j.kv("vt_decompose_s", e.decompose_seconds);
  j.kv("vt_build_s", e.build_seconds);
  j.kv("vt_traverse_s", e.traverse_seconds);
  j.kv("msgs", r.msgs);
  j.kv("bytes", r.bytes);
  j.kv("decompose_bytes", r.decompose_bytes);
  j.kv("cells", r.cells);
  j.kv("fmm_p2p", r.fmm.p2p);
  j.kv("fmm_m2l", r.fmm.m2l);
  j.kv("fmm_l2l", r.fmm.l2l);
  j.kv("fmm_l2p", r.fmm.l2p);
  j.kv("fmm_pair_splits", r.fmm.pair_splits);
  j.kv("p2p_per_s", r.p2p_per_s);
  j.kv("pool_tasks_run", r.pool_run);
  j.kv("pool_tasks_stolen", r.pool_stolen);
  j.kv("pool_steals_failed", r.pool_failed);
  j.kv("pool_busy_s", r.pool_busy_s);
  j.kv("pool_wall_s", r.pool_wall_s);
  j.end_object();
}

void write_net(support::json::Writer& j, const vmpi::NetTotals& n,
               int evaluations) {
  j.key("net");
  j.begin_object();
  j.kv("evaluations", evaluations);
  j.kv("frames_sent", n.frames_sent);
  j.kv("retransmits", n.retransmits);
  j.kv("corrupt_drops", n.corrupt_drops);
  j.kv("dup_suppressed", n.dup_suppressed);
  j.kv("pure_acks", n.pure_acks);
  j.kv("window_evictions", n.window_evictions);
  j.end_object();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload {solo_fmm|cluster_tree|cluster_lossy_ckpt}"
               " --seed N --seconds S --trace 0|1 --out FILE --scratch DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_path, scratch;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--out") {
      out_path = v;
    } else if (flag == "--scratch") {
      scratch = v;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (argc % 2 == 0 || w == nullptr || !seed || !(seconds > 0.0) ||
      (trace != 0 && trace != 1) || out_path.empty() || scratch.empty()) {
    return usage(argv[0]);
  }

  // Thread budget: rank threads plus the pool's extra workers must fit
  // the host, or the wall-clock metrics measure oversubscription.
  const int cpus = host_cpus();
  const int compute_threads = w->ranks + w->pool - 1;
  if (compute_threads > cpus) {
    std::cerr << "perfbench: " << w->name << " needs " << compute_threads
              << " compute threads but only " << cpus
              << " CPUs are available\n";
    return 3;
  }
  support::TaskPool::configure_global(w->pool);
  g_pool_origin = Clock::now();
  const int pool_size = support::TaskPool::global().size();

  std::filesystem::create_directories(scratch);
  std::string error;
  std::vector<double> setup_s;
  Session timed;  // the measured (or traced) session
  Session plain;  // trace mode's untraced half
  double force_err = std::nan("");
  try {
    if (trace == 0) {
      for (int k = 0; k + 1 < kSetupRepeats; ++k) {
        Session s;
        run_session(*w, *seed, Mode::setup_only, 0.0, scratch, s);
        setup_s.push_back(s.setup_s);
      }
      run_session(*w, *seed, Mode::timed, seconds, scratch, timed);
      setup_s.push_back(timed.setup_s);
    } else {
      // Half the budget untraced (the overhead baseline), half traced.
      run_session(*w, *seed, Mode::timed, seconds / 2, scratch, plain);
      run_session(*w, *seed, Mode::traced, seconds / 2, scratch, timed);
      setup_s.push_back(timed.setup_s);
    }
    force_err = force_rms_error(timed, make_bodies(*w, *seed), cpus);
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::ofstream os(out_path);
  support::json::Writer j(os, 0);
  j.begin_object();
  j.key("provenance");
  j.begin_object();
  j.kv("workload", w->name);
  j.kv("seed", *seed);
  j.kv("n", w->n);
  j.kv("ranks", w->ranks);
  j.kv("pool", pool_size);
  j.kv("compute_threads", compute_threads);
  j.kv("nproc", cpus);
  j.kv("simd", simd::name(simd::active()));
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("dt", kDt);
  j.end_object();
  if (error.empty()) {
    j.kv("error", "");
  } else {
    j.kv("error", error);
  }
  write_doubles(j, "setup_s", setup_s);
  j.kv("steps", timed.steps);
  j.kv("timed_wall_s", timed.timed_wall_s);
  write_doubles(j, "step_wall_s", timed.step_wall_s);
  auto vt = vtime_steps(timed);
  if (vt.size() > static_cast<std::size_t>(kVtimeWindow)) {
    vt.resize(kVtimeWindow);
  }
  write_doubles(j, "vtime_window_s", vt);
  j.kv("failed_steps", failed_steps(timed));
  if (std::isfinite(force_err)) {
    j.kv("force_rms_err", force_err);
  } else {
    j.key("force_rms_err");
    j.null();
  }
  j.kv("force_ceiling", w->force_ceiling);
  j.key("restore_ok");
  if (timed.restore_ok.empty()) {
    j.null();
  } else {
    j.value(std::all_of(timed.restore_ok.begin(), timed.restore_ok.end(),
                        [](char ok) { return ok != 0; }));
  }
  j.kv("peak_rss_mb", peak_rss_mb());
  if (trace == 1) {
    j.key("untraced");
    j.begin_object();
    j.kv("steps", plain.steps);
    j.kv("timed_wall_s", plain.timed_wall_s);
    j.kv("failed_steps", failed_steps(plain));
    write_net(j, plain.net, plain.evaluations);
    j.end_object();
    j.key("records");
    j.begin_array();
    for (std::size_t r = 0; r < timed.records.size(); ++r) {
      for (const auto& rec : timed.records[r]) {
        write_record(j, static_cast<int>(r), rec);
      }
    }
    j.end_array();
    j.key("spans");
    j.begin_array();
    for (std::size_t r = 0; r < timed.logs.size(); ++r) {
      for (const auto& sp : timed.logs[r].spans()) {
        j.begin_array();
        j.value(static_cast<int>(r));
        j.value(sp.step);
        j.value(sp.id);
        j.value(sp.parent);
        j.value(sp.name);
        j.value(sp.t0);
        j.value(sp.t1);
        j.end_array();
      }
    }
    j.end_array();
    j.key("io");
    j.begin_array();
    for (std::size_t r = 0; r < timed.io_stats.size(); ++r) {
      const auto& s = timed.io_stats[r];
      j.begin_object();
      j.kv("saves", timed.saves[r]);
      j.kv("bytes", s.bytes);
      j.kv("write_s", s.write_seconds);
      j.kv("blocked_s", s.blocked_seconds);
      j.end_object();
    }
    j.end_array();
    if (timed.obs) {
      const obs::CriticalPath cp(*timed.obs);
      j.key("critical_path");
      j.begin_object();
      j.kv("compute_s", cp.chain_compute_seconds());
      j.kv("wait_s", cp.chain_wait_seconds());
      j.kv("fabric_s", cp.chain_fabric_seconds());
      j.end_object();
      // Kept next to FILE; the scratch directory is temporary.
      obs::write_summary_file(
          *timed.obs, (std::filesystem::path(out_path).parent_path() /
                       (std::string(w->name) + ".summary.json"))
                          .string());
    }
  }
  j.end_object();
  os << "\n";
  os.close();
  if (!os) {
    std::cerr << "perfbench: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
