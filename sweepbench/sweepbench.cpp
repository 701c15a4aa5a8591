// End-to-end sweep benchmark program (README.md).
//
//   sweepbench --workload NAME --seed N --seconds S --trace 0|1
//              [--corpus-seed N] [--work DIR]
//   sweepbench --self-test
//   sweepbench --list-metrics
//
// Drives the library in-process through its public entry points only
// (api::Sweep, run_format_dynamic, partialschur<T>, compute_reference_tiered,
// ReferenceCache, match_eigenvectors, serve::Server + serve::run_sweep) and
// prints one JSON line: correct / attempted / failed / metrics, plus the
// raw-CSV digests the wrapper (run.py) checks against the pinned ones.
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// pass and reports the per-layer metrics instead.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "kernels/accel.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace {

using namespace mfla;
using sweepbench::Clock;
using sweepbench::seconds_between;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions. Every Sweep parameter is fixed here, so a drift in
// library or CLI defaults cannot change what a workload measures.
// ---------------------------------------------------------------------------

constexpr std::size_t kNev = 10;
constexpr std::size_t kBuffer = 2;
constexpr int kRestarts = 80;
constexpr int kReferenceRestarts = 150;
constexpr std::uint64_t kConfigSeed = 0xa11ce;
constexpr ReferenceTier kTier = ReferenceTier::dd_first;

constexpr const char* kDefaultFormats = "f16,bf16,p16,t16,f32,p32,t32,f64,p64,t64";
constexpr const char* kGraphFormats = "e4m3,e5m2,p8,t8";

/// Set-up is repeated at least kSetupMinRepeats times, and until the
/// repetitions add up to kSetupMinSeconds (at most kSetupMaxRepeats);
/// setup_s is the median. The last set-up is the one measured.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 50;
constexpr double kSetupMinSeconds = 1.0;
/// The traced pass solves each (matrix, format) item on one thread; items
/// are spread over at most this many workers.
constexpr std::size_t kTraceWorkers = 2;
/// Basis-vector entries kept per traced run as encode-benchmark operands.
constexpr std::size_t kCapturePerRun = 256;

/// serve_tenants request universe: the first `count` general matrices
/// (the daemon builds the default-seed corpus) x a 16-bit format subset.
constexpr std::size_t kServeCounts[] = {1, 2};
constexpr const char* kServeFormatSets[] = {"p16", "f16,p16", "bf16", "t16"};
constexpr std::size_t kServeMaxCount = 2;
/// Closed-loop clients, one tenant each: as many as the daemon's default
/// admission limit runs sweeps at once, so no request waits in its queue.
constexpr std::size_t kServeClients = 2;

ExperimentConfig workload_config() {
  ExperimentConfig cfg;
  cfg.nev = kNev;
  cfg.buffer = kBuffer;
  cfg.which = Which::largest_magnitude;
  cfg.max_restarts = kRestarts;
  cfg.reference_max_restarts = kReferenceRestarts;
  cfg.seed = kConfigSeed;
  cfg.reference_tier = kTier;
  return cfg;
}

api::Sweep configured_sweep(std::vector<TestMatrix> corpus, const std::string& formats,
                            std::size_t threads) {
  api::Sweep s = api::Sweep::over(std::move(corpus));
  s.formats(formats)
      .nev(kNev)
      .buffer(kBuffer)
      .which(Which::largest_magnitude)
      .restarts(kRestarts)
      .reference_restarts(kReferenceRestarts)
      .seed(kConfigSeed)
      .reference_tier(kTier)
      .threads(threads);
  return s;
}

/// `base` mixed with n (splitmix64); `base` itself for n == 0, so corpus
/// seed 0 is the library's default corpus.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t n) {
  if (n == 0) return base;
  std::uint64_t z = n + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return base ^ (z ^ (z >> 31));
}

/// general_warm matrices: one round (sweep) takes about 2.5 s on a 4-vCPU
/// VM, so a run has enough rounds for its best one to be steady.
constexpr std::size_t kGeneralWarmCount = 8;

struct BatchSpec {
  std::string formats;
  bool cold = false;  // fresh empty cache per round, no priming
  // The order seed also permutes the matrices; off where the corpus is so
  // small that its order decides the sweep's makespan.
  bool shuffle_matrices = true;
  std::vector<TestMatrix> (*build)(std::uint64_t seed) = nullptr;
};

std::vector<TestMatrix> build_general_warm(std::uint64_t seed) {
  GeneralCorpusOptions o;
  o.count = kGeneralWarmCount;
  o.seed = mix_seed(o.seed, seed);
  return build_general_corpus(o);
}

std::vector<TestMatrix> build_graph(std::uint64_t seed) {
  GraphCorpusOptions o;
  o.counts = {24, 24, 24, 24};
  o.seed = mix_seed(o.seed, seed);
  return build_graph_corpus(o);
}

std::vector<TestMatrix> build_reference_cold(std::uint64_t seed) {
  GeneralCorpusOptions o;
  o.count = 96;
  o.seed = mix_seed(o.seed, seed);
  return build_general_corpus(o);
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.uniform_index(i)]);
}

const std::map<std::string, BatchSpec>& batch_workloads() {
  static const std::map<std::string, BatchSpec> w = {
      {"general_warm", {kDefaultFormats, false, false, build_general_warm}},
      {"graph_8bit", {kGraphFormats, false, true, build_graph}},
      {"reference_cold", {"f64", true, true, build_reference_cold}},
  };
  return w;
}

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

bool more_setup(const std::vector<double>& times) {
  const auto n = static_cast<int>(times.size());
  if (n < kSetupMinRepeats) return true;
  return n < kSetupMaxRepeats &&
         std::accumulate(times.begin(), times.end(), 0.0) < kSetupMinSeconds;
}

std::string file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  if (!in && bytes.empty()) throw std::runtime_error("cannot read " + path.string());
  return Hasher().str(bytes).finish().hex();
}

std::string csv_digest(const std::vector<MatrixResult>& results, const fs::path& path) {
  write_results_csv(path.string(), results);
  return file_digest(path);
}

void fresh_dir(const fs::path& p) {
  fs::remove_all(p);
  fs::create_directories(p);
}

/// Touch the LUT tables behind every format of the list, so their one-time
/// construction lands in set-up rather than in the first timed run.
void warm_luts(const std::string& formats) {
  for (const FormatId id : parse_format_keys(formats)) {
    dispatch_format(id, [](auto tag) {
      using T = typename decltype(tag)::type;
#if MFLA_ENABLE_LUT
      constexpr auto kind = kernels::accel::accel_kind<T>();
      if constexpr (kind == kernels::accel::AccelKind::lut8) {
        (void)kernels::accel::Lut8<T>::instance();
      } else if constexpr (kind == kernels::accel::AccelKind::dec16_ieee ||
                           kind == kernels::accel::AccelKind::dec16_tapered) {
        (void)kernels::accel::Dec16<T>::instance();
      }
#endif
      return 0;
    });
  }
}

// ---------------------------------------------------------------------------
// Result reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> digests;       // digest key -> hex
  std::map<std::string, std::size_t> digest_runs;   // digest key -> runs it covers
  std::vector<std::string> problems;                // human-readable failures

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::size_t runs, const std::string& why) {
    failed += runs;
    problems.push_back(why);
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Report& r) {
  for (const auto& p : r.problems) std::fprintf(stderr, "sweepbench: FAILED: %s\n", p.c_str());
  std::string out = "{\"correct\": ";
  out += (r.failed == 0 && r.problems.empty()) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(std::min(r.failed, r.attempted));
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  const auto object = [](const auto& map, const auto& render) {
    std::string o = "{";
    for (const auto& [k, v] : map) o += (o.size() > 1 ? ", " : "") + json_string(k) + ": " + render(v);
    return o + "}";
  };
  out += "}, \"digests\": " + object(r.digests, json_string);
  out += ", \"digest_runs\": " +
         object(r.digest_runs, [](std::size_t v) { return std::to_string(v); }) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// The end-to-end metrics, in BENCHMARK.json order.
struct E2e {
  double sweep_s = 0, cpu_s = 0, run_p50 = 0, run_p95 = 0, req_per_s = 0, setup_s = 0;
};

void add_e2e(Report& rep, const E2e& e) {
  rep.add("sweep_s", e.sweep_s, "s");
  rep.add("cpu_s", e.cpu_s, "s");
  rep.add("run_s_p50", e.run_p50, "s");
  rep.add("run_s_p95", e.run_p95, "s");
  rep.add("requests_per_s", e.req_per_s, "1/s");
  rep.add("setup_s", e.setup_s, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---------------------------------------------------------------------------
// Per-layer accumulation (traced pass)
// ---------------------------------------------------------------------------

struct FormatLayers {
  double spmv_s = 0, orth_s = 0, restart_s = 0;
  std::vector<double> operands;  // encode-benchmark inputs
  double encode_ns = 0;
};

struct Layers {
  std::map<FormatId, FormatLayers> fmt;
  std::size_t spmv_calls = 0;
  std::size_t restarts = 0;
  double matching_s = 0, convert_s = 0;
  double traced_s = 0, untraced_s = 0;
  double busy_frac = 0;
  double ref_dd_s = 0, ref_f128_s = 0;
  std::size_t ref_dd_certified = 0, ref_promotions = 0;
  double cache_load_s = 0, cache_store_s = 0;
  std::size_t cache_hits = 0, cache_stores = 0;
  double serve_request_p50 = 0, serve_request_p95 = 0;
  double serve_overhead_p50 = 0, serve_overhead_p95 = 0;
  std::size_t serve_rejected = 0;
};

void add_layers(Report& rep, Layers& l) {
  for (const FormatId id : api::evaluation_formats()) {
    const FormatLayers& f = l.fmt[id];
    const std::string& key = format_key(id);
    rep.add("kernels.spmv_s." + key, f.spmv_s, "s");
    rep.add("core.arnoldi.orth_s." + key, f.orth_s, "s");
    rep.add("dense.restart_s." + key, f.restart_s, "s");
    rep.add("arith.encode_ns." + key, f.encode_ns, "ns");
  }
  rep.add("kernels.spmv.calls", static_cast<double>(l.spmv_calls), "count");
  rep.add("core.krylov_schur.restarts", static_cast<double>(l.restarts), "count");
  rep.add("core.matching_s", l.matching_s, "s");
  rep.add("core.experiment.convert_s", l.convert_s, "s");
  rep.add("core.experiment.busy_frac", l.busy_frac, "frac");
  rep.add("core.reference.dd_s", l.ref_dd_s, "s");
  rep.add("core.reference.f128_s", l.ref_f128_s, "s");
  rep.add("core.reference.dd_certified", static_cast<double>(l.ref_dd_certified), "count");
  rep.add("core.reference.promotions", static_cast<double>(l.ref_promotions), "count");
  rep.add("core.reference_cache.load_s", l.cache_load_s, "s");
  rep.add("core.reference_cache.hits", static_cast<double>(l.cache_hits), "count");
  rep.add("core.reference_cache.store_s", l.cache_store_s, "s");
  rep.add("core.reference_cache.stores", static_cast<double>(l.cache_stores), "count");
  rep.add("serve.request_s_p50", l.serve_request_p50, "s");
  rep.add("serve.request_s_p95", l.serve_request_p95, "s");
  rep.add("serve.overhead_s_p50", l.serve_overhead_p50, "s");
  rep.add("serve.overhead_s_p95", l.serve_overhead_p95, "s");
  rep.add("serve.rejected", static_cast<double>(l.serve_rejected), "count");
  rep.add("trace.overhead_frac",
          l.untraced_s > 0 ? l.traced_s / l.untraced_s - 1.0 : 0.0, "frac");
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

struct TracedRun {
  FormatRun run;
  sweepbench::PhaseSplit split;
  double convert_s = 0, matching_s = 0, total_s = 0;
  std::vector<double> operands;
};

/// run_format<T> (core/experiment.hpp) step for step, with the solve driven
/// through the timestamping operator and every non-solver step timed.
template <typename T>
TracedRun traced_run(const TestMatrix& tm, const ReferenceSolution& ref,
                     const ExperimentConfig& cfg, const std::vector<double>& start, FormatId id,
                     std::vector<sweepbench::MatvecEvent>& events) {
  TracedRun tr;
  FormatRun& run = tr.run;
  run.format = id;
  const auto t0 = Clock::now();
  if (matrix_exceeds_range<T>(tm.matrix)) {
    run.outcome = RunOutcome::range_exceeded;
    run.failure = "matrix entries exceed dynamic range";
    tr.convert_s = tr.total_s = seconds_between(t0, Clock::now());
    return tr;
  }
  const CsrMatrix<T> at = tm.matrix.convert<T>();
  PartialSchurOptions opts;
  opts.nev = cfg.nev + cfg.buffer;
  opts.which = cfg.which;
  opts.tolerance = NumTraits<T>::default_tolerance();
  opts.max_restarts = cfg.max_restarts;
  opts.start_vector = &start;
  opts.seed = fnv1a(tm.name) ^ 0x517e;
  events.clear();
  const sweepbench::TracingOp<T, CsrMatrix<T>> op(at, events);
  const auto t1 = Clock::now();
  const auto r = partialschur<T>(op, opts);
  const auto t2 = Clock::now();
  tr.split = sweepbench::classify_gaps(events, t1, t2);
  run.restarts = r.restarts;
  run.matvecs = r.matvecs;
  run.nconverged = r.nconverged;

  const auto capture = [&] {
    for (std::size_t j = 0; j < r.q.cols() && tr.operands.size() < kCapturePerRun; ++j)
      for (std::size_t i = 0; i < r.q.rows() && tr.operands.size() < kCapturePerRun; ++i)
        tr.operands.push_back(NumTraits<T>::to_double(r.q(i, j)));
  };
  if (!r.converged) {
    run.outcome = RunOutcome::no_convergence;
    run.failure = r.failure;
    tr.convert_s = seconds_between(t0, t1) + tr.split.head_s;
    tr.total_s = seconds_between(t0, t2);
    capture();
    return tr;
  }

  const std::size_t k = cfg.nev + cfg.buffer;
  const std::size_t kc = std::min(k, r.q.cols());
  DenseMatrix<double> vectors(tm.n(), kc);
  for (std::size_t j = 0; j < kc; ++j)
    for (std::size_t i = 0; i < tm.n(); ++i) vectors(i, j) = NumTraits<T>::to_double(r.q(i, j));
  std::vector<double> values(r.eig_re.begin(), r.eig_re.begin() + static_cast<long>(kc));
  const auto t3 = Clock::now();

  const MatchResult match = match_eigenvectors(ref.vectors, vectors);
  const DenseMatrix<double> matched_vectors = apply_match(vectors, match);
  const std::vector<double> matched_values = apply_match(values, match);
  run.mean_similarity = match.mean_similarity;
  run.eigenvalue_error = eigenvalue_errors(ref.values, matched_values, cfg.nev);
  run.eigenvector_error = eigenvector_errors(ref.vectors, matched_vectors, cfg.nev);
  const bool finite = std::isfinite(run.eigenvalue_error.relative) &&
                      std::isfinite(run.eigenvector_error.relative);
  run.outcome = finite ? RunOutcome::ok : RunOutcome::no_convergence;
  const auto t4 = Clock::now();

  tr.convert_s = seconds_between(t0, t1) + tr.split.head_s + seconds_between(t2, t3);
  tr.matching_s = seconds_between(t3, t4);
  tr.total_s = seconds_between(t0, t4);
  capture();
  return tr;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when the traced run reproduces the untraced one exactly.
std::string identity_mismatch(const FormatRun& u, const TracedRun& t) {
  const FormatRun& r = t.run;
  if (u.outcome != r.outcome) return "outcome";
  if (u.matvecs != r.matvecs) return "matvecs";
  if (u.restarts != r.restarts) return "restarts";
  if (u.nconverged != r.nconverged) return "nconverged";
  if (u.failure != r.failure) return "failure text";
  if (!same_bits(u.eigenvalue_error.absolute, r.eigenvalue_error.absolute) ||
      !same_bits(u.eigenvalue_error.relative, r.eigenvalue_error.relative))
    return "eigenvalue bits";
  if (!same_bits(u.eigenvector_error.absolute, r.eigenvector_error.absolute) ||
      !same_bits(u.eigenvector_error.relative, r.eigenvector_error.relative))
    return "eigenvector bits";
  if (!same_bits(u.mean_similarity, r.mean_similarity)) return "similarity bits";
  // The classifier must see exactly the solver's matvecs and restarts.
  if (r.outcome != RunOutcome::range_exceeded) {
    if (t.split.matvecs != r.matvecs) return "classifier matvec count";
    if (t.split.restarts != static_cast<std::size_t>(r.restarts)) return "classifier restart count";
  }
  return {};
}

template <typename T>
double encode_ns_for(const std::vector<double>& ops) {
  if (ops.empty()) return 0.0;
  std::vector<T> out(ops.size());
  const std::size_t inner = std::max<std::size_t>(1, 1000000 / ops.size());
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < inner; ++k) {
      for (std::size_t i = 0; i < ops.size(); ++i) out[i] = NumTraits<T>::from_double(ops[i]);
      asm volatile("" : : "r"(out.data()) : "memory");
    }
    samples.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(inner * ops.size()));
  }
  return median(samples);
}

/// References for the traced pass, loaded (and timed) from a primed cache;
/// the same entries are then stored (and timed) into a scratch cache.
std::vector<ReferenceSolution> load_references(const std::vector<TestMatrix>& corpus,
                                               const fs::path& cache_dir,
                                               const fs::path& store_dir, Layers& l,
                                               Report& rep) {
  const ExperimentConfig cfg = workload_config();
  std::vector<ReferenceSolution> refs(corpus.size());
  {
    ReferenceCache cache(cache_dir.string());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const TestMatrix& tm = corpus[i];
      const std::vector<double> start = Rng(tm.name, cfg.seed).unit_vector(tm.n());
      const Hash128 key = reference_cache_key(tm.matrix, cfg, start);
      const auto t0 = Clock::now();
      const bool hit = cache.load(key, refs[i]);
      l.cache_load_s += seconds_between(t0, Clock::now());
      if (hit) {
        ++l.cache_hits;
      } else {
        rep.fail(0, "reference cache miss for " + tm.name + " after priming");
        refs[i] = compute_reference_tiered(tm, cfg, start).solution;
      }
    }
  }
  fresh_dir(store_dir);
  ReferenceCache scratch(store_dir.string());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const TestMatrix& tm = corpus[i];
    const std::vector<double> start = Rng(tm.name, cfg.seed).unit_vector(tm.n());
    const Hash128 key = reference_cache_key(tm.matrix, cfg, start);
    const auto t0 = Clock::now();
    scratch.store(key, refs[i]);
    l.cache_store_s += seconds_between(t0, Clock::now());
  }
  l.cache_stores = scratch.stats().stores;
  return refs;
}

/// Every (matrix, format) item untraced (run_format_dynamic) and traced,
/// back to back on one worker thread, alternating which goes first.
/// Returns the untraced results in sweep layout for the CSV check.
std::vector<MatrixResult> traced_pass(const std::vector<TestMatrix>& corpus,
                                      const std::vector<ReferenceSolution>& refs,
                                      const std::vector<FormatId>& formats, Layers& l,
                                      Report& rep) {
  const ExperimentConfig cfg = workload_config();
  const std::size_t nm = corpus.size(), nf = formats.size();
  std::vector<FormatRun> untraced(nm * nf);
  std::vector<TracedRun> traced(nm * nf);
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(kTraceWorkers, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  std::mutex err_mtx;
  std::string first_error;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::vector<sweepbench::MatvecEvent> events;
      events.reserve(static_cast<std::size_t>(kRestarts + 1) * 4 * (kNev + kBuffer));
      for (std::size_t item; (item = next.fetch_add(1)) < nm * nf;) {
        const std::size_t i = item / nf, j = item % nf;
        if (!refs[i].ok) continue;
        const TestMatrix& tm = corpus[i];
        const std::vector<double> start = Rng(tm.name, cfg.seed).unit_vector(tm.n());
        try {
          const auto do_untraced = [&] {
            untraced[item] = run_format_dynamic(tm, refs[i], cfg, start, formats[j]);
          };
          const auto do_traced = [&] {
            traced[item] = dispatch_format(formats[j], [&](auto tag) {
              using T = typename decltype(tag)::type;
              return traced_run<T>(tm, refs[i], cfg, start, formats[j], events);
            });
          };
          if (item % 2 == 0) {
            do_untraced();
            do_traced();
          } else {
            do_traced();
            do_untraced();
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lk(err_mtx);
          if (first_error.empty()) first_error = tm.name + ": " + e.what();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (!first_error.empty()) rep.fail(1, "traced pass aborted: " + first_error);

  std::vector<MatrixResult> results(nm);
  for (std::size_t i = 0; i < nm; ++i) {
    MatrixResult& res = results[i];
    const TestMatrix& tm = corpus[i];
    res.name = tm.name;
    res.klass = tm.klass;
    res.category = tm.category;
    res.n = tm.n();
    res.nnz = tm.nnz();
    res.reference_ok = refs[i].ok;
    res.reference_failure = refs[i].failure;
    if (!refs[i].ok) continue;
    for (std::size_t j = 0; j < nf; ++j) {
      const std::size_t item = i * nf + j;
      const FormatRun& u = untraced[item];
      const TracedRun& t = traced[item];
      ++rep.attempted;
      const std::string why = identity_mismatch(u, t);
      if (!why.empty())
        rep.fail(1, "identity check: " + tm.name + " " + format_key(formats[j]) + ": " + why);
      if (u.outcome == RunOutcome::fault) rep.fail(1, "fault run " + tm.name);
      FormatLayers& f = l.fmt[formats[j]];
      f.spmv_s += t.split.spmv_s;
      f.orth_s += t.split.orth_s;
      f.restart_s += t.split.restart_s;
      for (const double x : t.operands) f.operands.push_back(x);
      l.spmv_calls += t.split.matvecs;
      l.restarts += t.split.restarts;
      l.matching_s += t.matching_s;
      l.convert_s += t.convert_s;
      l.traced_s += t.total_s;
      l.untraced_s += u.duration_seconds;
      res.runs.push_back(u);
    }
  }
  for (auto& [id, f] : l.fmt) {
    f.encode_ns = dispatch_format(id, [&](auto tag) {
      using T = typename decltype(tag)::type;
      return encode_ns_for<T>(f.operands);
    });
  }
  return results;
}

// ---------------------------------------------------------------------------
// Batch workloads: general_warm, graph_8bit, reference_cold
// ---------------------------------------------------------------------------

/// Collects every run's wall time and outcome of one sweep through the
/// sink pipeline (the engine calls sinks one at a time).
class RunTimesSink final : public api::ResultSink {
 public:
  void on_run(const api::RunEvent& e) override {
    run_s[e.matrix + "/" + format_key(e.run.format)] = e.run.duration_seconds;
    if (e.run.outcome == RunOutcome::fault) ++faults;
  }
  std::map<std::string, double> run_s;  // matrix/format -> run wall
  std::size_t faults = 0;
};

/// Lowest value per key over the rounds seen so far.
using BestOf = std::map<std::string, double>;

void keep_best(BestOf& best, const std::map<std::string, double>& round) {
  for (const auto& [key, v] : round) {
    const auto [it, fresh] = best.emplace(key, v);
    if (!fresh) it->second = std::min(it->second, v);
  }
}

std::vector<double> values_of(const BestOf& best) {
  std::vector<double> v;
  for (const auto& kv : best) v.push_back(kv.second);
  return v;
}

struct Prepared {
  std::vector<TestMatrix> corpus;  // in the order given by the order seed
  std::string formats;             // the workload's formats, in that order too
  std::map<std::string, std::size_t> canonical;  // matrix name -> generation index
  std::map<FormatId, std::size_t> format_rank;   // format -> index in the workload's list
  double setup_s = 0;
};

/// Build the corpus (generation order), put the sweep's format list and
/// (shuffle_matrices workloads) its matrices in the order seed's order, warm
/// the LUTs and (warm workloads) prime a fresh cache with an f64-only sweep —
/// the formats are not part of the cache key.
Prepared set_up_batch(const BatchSpec& spec, std::uint64_t corpus_seed,
                      std::uint64_t order_seed, const fs::path& cache_dir, std::size_t threads,
                      bool once) {
  Prepared p;
  std::vector<double> times;
  while (times.empty() || (!once && more_setup(times))) {
    fs::remove_all(cache_dir);
    const auto t0 = Clock::now();
    p.corpus = spec.build(corpus_seed);
    p.canonical.clear();
    for (std::size_t i = 0; i < p.corpus.size(); ++i)
      if (!p.canonical.emplace(p.corpus[i].name, i).second)
        throw std::runtime_error("duplicate matrix name " + p.corpus[i].name);
    // Results do not depend on the order (every run's start vector derives
    // from the matrix name); scheduling does. Order seed 0 keeps it.
    std::vector<FormatId> formats = parse_format_keys(spec.formats);
    p.format_rank.clear();
    for (std::size_t j = 0; j < formats.size(); ++j) p.format_rank[formats[j]] = j;
    if (order_seed != 0) {
      const Rng rng(mix_seed(0x0dde12, order_seed));
      shuffle(formats, rng);
      if (spec.shuffle_matrices) shuffle(p.corpus, rng);
    }
    p.formats.clear();
    for (const FormatId id : formats) p.formats += (p.formats.empty() ? "" : ",") + format_key(id);
    warm_luts(spec.formats);
    if (!spec.cold) (void)configured_sweep(p.corpus, "f64", threads).cache(cache_dir.string()).run();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  p.setup_s = median(times);
  return p;
}

/// Digest of the raw CSV of `results` put back into generation and format
/// list order, so it is independent of the order seed.
std::string canonical_digest(std::vector<MatrixResult> results, const Prepared& p,
                             const fs::path& path) {
  std::sort(results.begin(), results.end(), [&](const MatrixResult& a, const MatrixResult& b) {
    return p.canonical.at(a.name) < p.canonical.at(b.name);
  });
  for (MatrixResult& r : results)
    std::sort(r.runs.begin(), r.runs.end(), [&](const FormatRun& a, const FormatRun& b) {
      return p.format_rank.at(a.format) < p.format_rank.at(b.format);
    });
  return csv_digest(results, path);
}

Report run_batch(const std::string& name, const BatchSpec& spec, std::uint64_t corpus_seed,
                 std::uint64_t seed, double seconds, bool trace, const fs::path& work) {
  Report rep;
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const fs::path cache_dir = work / "refcache";
  Prepared p = set_up_batch(spec, corpus_seed, seed, cache_dir, threads,
                            /*once=*/trace);
  const std::size_t runs_per_sweep = p.corpus.size() * parse_format_keys(spec.formats).size();

  if (trace) {
    Layers l;
    if (spec.cold) fs::remove_all(cache_dir);
    SweepStats stats;
    const auto t0 = Clock::now();
    const api::SweepResult res =
        configured_sweep(p.corpus, spec.formats, threads).cache(cache_dir.string()).run();
    const double wall = seconds_between(t0, Clock::now());
    stats = res.stats;
    l.busy_frac = (stats.reference_seconds + stats.reference_cache_seconds + stats.format_seconds) /
                  (static_cast<double>(threads) * wall);
    l.ref_dd_s = stats.reference_dd_seconds;
    l.ref_f128_s = stats.reference_f128_seconds;
    l.ref_dd_certified = stats.reference_dd_certified;
    l.ref_promotions = stats.reference_promotions;
    rep.attempted += runs_per_sweep;
    if (stats.solve_faults) rep.fail(stats.solve_faults, "fault runs in the stats sweep");
    const std::string sweep_digest = canonical_digest(res.results, p, work / "sweep.csv");
    rep.digests["csv"] = sweep_digest;
    rep.digest_runs["csv"] = runs_per_sweep;

    const auto refs = load_references(p.corpus, cache_dir, work / "store_probe", l, rep);
    const auto results = traced_pass(p.corpus, refs, parse_format_keys(spec.formats), l, rep);
    if (canonical_digest(results, p, work / "traced_pass.csv") != sweep_digest)
      rep.fail(runs_per_sweep, "untraced pass CSV differs from the sweep CSV");
    add_layers(rep, l);
    return rep;
  }

  // Timed rounds: the same sweep, repeated while another round still fits
  // in the time budget. Contention on a shared host only ever adds time, so
  // every timing is the best of the rounds (per run and per matrix for the
  // quantiles); the rounds spread over the whole budget.
  std::vector<double> walls, cpus;
  BestOf best_run;
  std::string first_digest;
  const auto phase0 = Clock::now();
  for (int rep_i = 0;
       rep_i == 0 || seconds_between(phase0, Clock::now()) + walls.back() <= seconds; ++rep_i) {
    if (spec.cold) fs::remove_all(cache_dir);
    std::vector<TestMatrix> corpus = p.corpus;
    const fs::path csv_path = work / ("sweep_" + std::to_string(rep_i) + ".csv");
    auto times = std::make_shared<RunTimesSink>();
    api::Sweep sweep = configured_sweep(std::move(corpus), p.formats, threads);
    sweep.cache(cache_dir.string()).sink(times).sink(std::make_shared<api::CsvSink>(csv_path.string()));
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const api::SweepResult res = sweep.run();
    const double wall = seconds_between(t0, Clock::now());
    cpus.push_back(cpu_seconds() - c0);
    walls.push_back(wall);
    keep_best(best_run, times->run_s);
    std::fprintf(stderr, "sweepbench: %s: round %d: %.3f s wall, %.3f s cpu\n", name.c_str(),
                 rep_i, wall, cpus.back());

    rep.attempted += runs_per_sweep;
    if (times->faults) rep.fail(times->faults, name + ": fault runs");
    if (res.stats.canceled_runs) rep.fail(res.stats.canceled_runs, name + ": canceled runs");
    if (times->run_s.size() != runs_per_sweep)
      rep.fail(runs_per_sweep - std::min(runs_per_sweep, times->run_s.size()),
               name + ": runs missing from the result stream");
    if (!spec.cold && res.stats.reference_solves != 0)
      rep.fail(0, name + ": warm sweep solved references (cache bypassed)");
    const std::string digest = canonical_digest(res.results, p, csv_path);
    fs::remove(csv_path);
    if (first_digest.empty()) first_digest = rep.digests["csv"] = digest;
    if (digest == first_digest) {
      rep.digest_runs["csv"] += runs_per_sweep;
    } else {
      rep.fail(runs_per_sweep, name + ": CSV of round " + std::to_string(rep_i) +
                                   " differs from round 0");
    }
  }
  E2e e;
  e.setup_s = p.setup_s;
  e.sweep_s = *std::min_element(walls.begin(), walls.end());
  e.cpu_s = *std::min_element(cpus.begin(), cpus.end());
  const std::vector<double> runs = values_of(best_run);
  e.run_p50 = quantile(runs, 0.50);
  e.run_p95 = quantile(runs, 0.95);
  e.req_per_s = static_cast<double>(p.corpus.size()) / e.sweep_s;
  std::fprintf(stderr, "sweepbench: %s: %zu rounds x %zu runs, best %.3f s\n", name.c_str(),
               walls.size(), runs_per_sweep, e.sweep_s);
  add_e2e(rep, e);
  return rep;
}

// ---------------------------------------------------------------------------
// serve_tenants: in-process daemon, closed-loop client threads
// ---------------------------------------------------------------------------

struct ServeSpec {
  std::size_t count;
  std::string formats;
  [[nodiscard]] std::string key() const { return std::to_string(count) + ":" + formats; }
};

std::vector<ServeSpec> serve_specs() {
  std::vector<ServeSpec> out;
  for (const std::size_t c : kServeCounts)
    for (const char* f : kServeFormatSets) out.push_back({c, f});
  return out;
}

serve::SweepRequest serve_request(const ServeSpec& s, const std::string& tenant) {
  serve::SweepRequest r;
  r.tenant = tenant;
  r.corpus = "general";
  r.count = s.count;
  r.formats = s.formats;
  r.nev = kNev;
  r.buffer = kBuffer;
  r.restarts = kRestarts;
  r.which = "largest_magnitude";
  r.seed = kConfigSeed;
  r.ref_tier = reference_tier_name(kTier);
  r.resume = false;  // every request recomputes; no journal replay
  return r;
}

std::vector<TestMatrix> serve_corpus(std::size_t count) {
  GeneralCorpusOptions o;  // the daemon builds the default-seed corpus
  o.count = count;
  return build_general_corpus(o);
}

/// A running daemon: server object plus its accept-loop thread.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::thread loop;
  void stop() {
    if (!server) return;
    server->request_drain();
    loop.join();
    server.reset();
  }
  ~Daemon() { stop(); }
};

struct RequestRecord {
  std::size_t client = 0, spec = 0;
  double wall_s = 0, server_s = 0;
  serve::ClientResult::Status status{};
  std::string detail;
  std::string digest;
  std::vector<double> run_s;
};

Report run_serve(std::uint64_t seed, double seconds, bool trace, const fs::path& work) {
  Report rep;
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<ServeSpec> specs = serve_specs();
  const fs::path state = work / "state";
  const std::string socket = (work / "d.sock").string();

  // Set-up: corpus, LUTs, cache priming through the daemon's own cache
  // directory, daemon start. Repeated; the last daemon stays up.
  Daemon daemon;
  std::vector<double> setup_times;
  while (setup_times.empty() || (!trace && more_setup(setup_times))) {
    daemon.stop();
    fs::remove_all(state);
    const auto t0 = Clock::now();
    std::vector<TestMatrix> corpus = serve_corpus(kServeMaxCount);
    for (const char* f : kServeFormatSets) warm_luts(f);
    (void)configured_sweep(std::move(corpus), "f64", threads)
        .cache((state / "refcache").string())
        .run();
    serve::ServerOptions so;
    so.socket_path = socket;
    so.state_dir = state.string();
    so.threads = threads;
    daemon.server = std::make_unique<serve::Server>(so);
    daemon.loop = std::thread([s = daemon.server.get()] { s->serve(); });
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed rounds of a closed loop: in each round every client sends its own
  // seeded permutation of the whole request universe, one request at a
  // time, and the round ends when all clients are done. Rounds repeat while
  // another still fits in the time budget (one round when tracing), so
  // every seed runs the same request mix; timings are the best of the
  // rounds, per round and per (client, request).
  const std::size_t clients = kServeClients;
  std::vector<std::vector<std::size_t>> orders(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    orders[c].resize(specs.size());
    std::iota(orders[c].begin(), orders[c].end(), 0);
    shuffle(orders[c], Rng(mix_seed(0x5e4e, seed) ^ (c + 1)));
  }
  std::vector<RequestRecord> records;
  std::vector<double> round_walls, round_cpus;
  const auto phase0 = Clock::now();
  for (int round = 0; round == 0 || (!trace && seconds_between(phase0, Clock::now()) +
                                                       round_walls.back() <=
                                                   seconds);
       ++round) {
    std::vector<std::vector<RequestRecord>> per_client(clients);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        const fs::path csv = work / ("client_" + std::to_string(c) + ".csv");
        serve::ClientOptions co;
        co.socket_path = socket;
        for (const std::size_t spec : orders[c]) {
          RequestRecord rec;
          rec.client = c;
          rec.spec = spec;
          const auto r0 = Clock::now();
          serve::ClientResult res;
          try {
            res = serve::run_sweep(co, serve_request(specs[spec], "tenant" + std::to_string(c)));
          } catch (const std::exception& e) {
            res.status = serve::ClientResult::Status::io_error;
            res.error = e.what();
          }
          rec.wall_s = seconds_between(r0, Clock::now());
          rec.server_s = res.elapsed_seconds;
          rec.status = res.status;
          rec.detail = res.error + res.reject_reason;
          if (res.status == serve::ClientResult::Status::ok) {
            for (const auto& m : res.results)
              for (const auto& run : m.runs) rec.run_s.push_back(run.duration_seconds);
            rec.digest = csv_digest(res.results, csv);
          }
          per_client[c].push_back(std::move(rec));
        }
      });
    }
    for (auto& t : pool) t.join();
    round_walls.push_back(seconds_between(t0, Clock::now()));
    round_cpus.push_back(cpu_seconds() - c0);
    std::fprintf(stderr, "sweepbench: serve_tenants: round %d: %.3f s wall, %.3f s cpu\n", round,
                 round_walls.back(), round_cpus.back());
    for (auto& recs : per_client)
      for (auto& rec : recs) records.push_back(std::move(rec));
  }
  const serve::ServerStats stats = daemon.server->stats_snapshot();
  daemon.stop();

  // Verification (untimed): every request's reconstructed CSV against the
  // direct api::Sweep CSV of the same spec.
  std::map<std::size_t, std::string> direct;
  std::vector<double> overheads, all_runs;
  BestOf best_request, best_run;
  std::size_t ok_requests = 0, executed_runs = 0;
  for (const RequestRecord& rec : records) {
    const ServeSpec& s = specs[rec.spec];
    const std::size_t nruns = s.count * parse_format_keys(s.formats).size();
    rep.attempted += 1 + nruns;
    if (rec.status != serve::ClientResult::Status::ok) {
      rep.fail(1 + nruns, "request " + s.key() + " did not complete: " + rec.detail);
      continue;
    }
    if (!direct.count(rec.spec)) {
      const fs::path path = work / "direct.csv";
      (void)configured_sweep(serve_corpus(s.count), s.formats, threads)
          .cache((state / "refcache").string())
          .sink(std::make_shared<api::CsvSink>(path.string()))
          .run();
      direct[rec.spec] = file_digest(path);
      rep.digests[s.key()] = direct[rec.spec];
    }
    rep.digest_runs[s.key()] += nruns;
    if (rec.digest != direct[rec.spec]) {
      rep.fail(1 + nruns, "request " + s.key() + " CSV differs from the direct sweep CSV");
      continue;
    }
    ++ok_requests;
    executed_runs += rec.run_s.size();
    const std::string item = std::to_string(rec.client) + "/" + s.key();
    keep_best(best_request, {{item, rec.wall_s}});
    for (std::size_t k = 0; k < rec.run_s.size(); ++k)
      keep_best(best_run, {{item + "/" + std::to_string(k), rec.run_s[k]}});
    overheads.push_back(rec.wall_s - rec.server_s);
    all_runs.insert(all_runs.end(), rec.run_s.begin(), rec.run_s.end());
  }
  const std::size_t rejected = stats.admission.rejected_overloaded + stats.admission.rejected_tenant +
                               stats.admission.rejected_shutdown + stats.malformed;
  if (rejected) rep.fail(0, std::to_string(rejected) + " requests rejected by the daemon");
  std::fprintf(stderr, "sweepbench: serve_tenants: %zu clients, %zu requests ok, %zu runs\n",
               clients, ok_requests, executed_runs);

  if (trace) {
    Layers l;
    l.serve_request_p50 = quantile(values_of(best_request), 0.50);
    l.serve_request_p95 = quantile(values_of(best_request), 0.95);
    l.serve_overhead_p50 = quantile(overheads, 0.50);
    l.serve_overhead_p95 = quantile(overheads, 0.95);
    l.serve_rejected = rejected;
    l.busy_frac = std::accumulate(all_runs.begin(), all_runs.end(), 0.0) /
                  (static_cast<double>(threads) * round_walls.front());
    // Traced pass over the request universe: the largest count x every
    // format any request uses.
    std::vector<FormatId> formats;
    for (const char* f : kServeFormatSets)
      for (const FormatId id : parse_format_keys(f))
        if (std::find(formats.begin(), formats.end(), id) == formats.end()) formats.push_back(id);
    const std::vector<TestMatrix> corpus = serve_corpus(kServeMaxCount);
    const auto refs = load_references(corpus, state / "refcache", work / "store_probe", l, rep);
    (void)traced_pass(corpus, refs, formats, l, rep);
    add_layers(rep, l);
    return rep;
  }

  E2e e;
  e.setup_s = median(setup_times);
  e.sweep_s = *std::min_element(round_walls.begin(), round_walls.end());
  e.cpu_s = *std::min_element(round_cpus.begin(), round_cpus.end());
  const std::vector<double> runs = values_of(best_run);
  e.run_p50 = quantile(runs, 0.50);
  e.run_p95 = quantile(runs, 0.95);
  e.req_per_s = static_cast<double>(clients * specs.size()) / e.sweep_s;
  add_e2e(rep, e);
  return rep;
}

// ---------------------------------------------------------------------------
// Self-test: the gap classifier on synthetic matvec sequences
// ---------------------------------------------------------------------------

int self_test() {
  using sweepbench::MatvecEvent;
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-12; };

  // Synthetic timeline in whole "milliseconds": two expansion cycles
  // (columns 0..3, then a restart back to column 2..3), 1 ms per matvec,
  // 2 ms per orthogonalization gap, 5 ms per restart gap, 7 ms tail.
  const Clock::time_point t0{};
  const auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(ms));
  };
  std::vector<MatvecEvent> ev;
  double now = 3;  // 3 ms head
  const auto push = [&](std::size_t col, double gap_after) {
    ev.push_back({col, at(now), at(now + 1)});
    now += 1 + gap_after;
  };
  push(0, 2);
  push(1, 2);
  push(2, 2);
  push(3, 5);  // restart: next column drops to 2
  push(2, 2);
  push(3, 0);
  const auto split = sweepbench::classify_gaps(ev, at(0), at(now + 7));
  expect(split.matvecs == 6, "matvec count");
  expect(split.restarts == 1, "one column drop is one restart");
  expect(near(split.head_s, 3e-3), "head before the first matvec");
  expect(near(split.spmv_s, 6e-3), "matvec time");
  expect(near(split.orth_s, 4 * 2e-3), "advancing gaps are orthogonalization");
  expect(near(split.restart_s, 5e-3 + 7e-3), "dropping gap plus tail is restart");
  expect(near(split.head_s + split.spmv_s + split.orth_s + split.restart_s,
              seconds_between(at(0), at(now + 7))),
         "phases partition the solve");

  // A restart that keeps the last column (j stays equal) is still a restart.
  std::vector<MatvecEvent> same = {{4, at(0), at(1)}, {4, at(3), at(4)}};
  expect(sweepbench::classify_gaps(same, at(0), at(4)).restarts == 1, "equal column is a restart");

  // No matvecs at all: everything is head.
  const auto empty = sweepbench::classify_gaps({}, at(0), at(2));
  expect(empty.matvecs == 0 && near(empty.head_s, 2e-3), "empty trace");

  // Column from pointer: the operator derives j from x - v.col(0).
  struct Fake {
    std::size_t n;
    [[nodiscard]] std::size_t rows() const { return n; }
    void matvec(const double*, double*) const {}
  };
  const Fake fake{5};
  std::vector<MatvecEvent> seen;
  sweepbench::TracingOp<double, Fake> op(fake, seen);
  std::vector<double> basis(5 * 4), y(5);
  for (const std::size_t j : {0, 1, 2, 3, 1, 2}) op.matvec(basis.data() + j * 5, y.data());
  bool cols_ok = seen.size() == 6;
  const std::size_t want[] = {0, 1, 2, 3, 1, 2};
  for (std::size_t i = 0; cols_ok && i < 6; ++i) cols_ok = seen[i].column == want[i];
  expect(cols_ok, "column from pointer offset");
  expect(sweepbench::classify_gaps(seen, seen.front().begin, seen.back().end).restarts == 1,
         "pointer-derived columns classify one restart");

  // Quantile helper.
  expect(near(quantile({1, 2, 3, 4, 5}, 0.5), 3) && near(quantile({1, 2}, 0.95), 1.95),
         "quantile interpolation");

  std::fprintf(stderr, "self-test: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

/// Metric names and units this binary emits, for run.py's contract check.
int list_metrics() {
  Report e2e;
  add_e2e(e2e, E2e{});
  Layers l;
  Report per;
  add_layers(per, l);
  const auto dump = [](const Report& r) {
    std::string s = "{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      if (i) s += ", ";
      s += json_string(r.metrics[i].name) + ": " + json_string(r.metrics[i].unit);
    }
    return s + "}";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n", dump(e2e).c_str(), dump(per).c_str());
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sweepbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                  [--corpus-seed N] [--work DIR]\n"
               "       sweepbench --self-test | --list-metrics\n"
               "workloads: general_warm graph_8bit reference_cold serve_tenants\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t corpus_seed = 0;
  double seconds = 10;
  int trace = 0;
  fs::path work = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--self-test") return self_test();
    if (a == "--list-metrics") return list_metrics();
    try {
      if (a == "--workload") workload = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--corpus-seed") corpus_seed = std::stoull(next());
      else if (a == "--seconds") seconds = std::stod(next());
      else if (a == "--trace") trace = std::stoi(next());
      else if (a == "--work") work = next();
      else usage();
    } catch (const std::logic_error&) {
      usage();
    }
  }
  if (workload.empty() || seconds <= 0 || (trace != 0 && trace != 1)) usage();

  try {
    const fs::path dir = work / workload;
    fresh_dir(dir);
    Report rep;
    if (workload == "serve_tenants") {
      rep = run_serve(seed, seconds, trace == 1, dir);
    } else {
      const auto it = batch_workloads().find(workload);
      if (it == batch_workloads().end()) usage();
      rep = run_batch(workload, it->second, corpus_seed, seed, seconds, trace == 1, dir);
    }
    print_report(rep);
    return (rep.failed == 0 && rep.problems.empty()) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepbench: error: %s\n", e.what());
    return 3;
  }
}
