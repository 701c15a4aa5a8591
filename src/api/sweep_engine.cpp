// The task-parallel sweep engine behind api::Sweep::run.
//
// Work is decomposed at (matrix, format) granularity onto a work-stealing
// thread pool: each matrix contributes one prerequisite task (the float128
// reference solve) which, on success, fans out one task per format sharing
// the cached reference and start vector. A single slow reference solve or
// a skewed corpus therefore never serializes the tail: format runs of one
// matrix proceed while another matrix's reference is still being solved.
//
// Determinism: every run depends only on (matrix, config). The start vector
// comes from an RNG stream seeded by the matrix name, results are written
// into preallocated (matrix, format) slots, and the output ordering is the
// dataset/format-list ordering — so results are bit-identical for any
// thread count and any scheduling interleaving.
//
// Durability: with a checkpoint path set, every completed run is appended
// to a JSONL journal (core/results_io.hpp) and flushed; on resume the
// journal is replayed and only missing runs are scheduled. A matrix whose
// runs are all journaled does not even recompute its reference.
//
// Events: run, reference-failure and fault events go straight to the
// Sweep's sinks, serialized under one lock, so sinks see a monotonically
// increasing `done` count and never run concurrently with each other.
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "api/sweep.hpp"
#include "core/results_io.hpp"
#include "support/failpoint.hpp"
#include "support/thread_pool.hpp"

namespace mfla::api {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mutable per-sweep state shared by the scheduled tasks.
struct EngineState {
  explicit EngineState(const std::vector<std::shared_ptr<ResultSink>>& s) : sinks(s) {}

  const std::vector<std::shared_ptr<ResultSink>>& sinks;

  // slots[i][j] is written by at most one task. done[i][j] marks slots
  // filled from the journal during resume (consumed before scheduling).
  std::vector<std::vector<FormatRun>> slots;
  std::vector<std::vector<char>> done;
  std::vector<char> ref_failed;
  std::vector<std::string> ref_failures;

  std::unique_ptr<JournalWriter> journal;

  // Event stream state, guarded by event_mtx: runs completed (or retired
  // by a reference failure) so far, and runs executed by this invocation.
  std::mutex event_mtx;
  std::size_t completed = 0;
  std::size_t executed = 0;
  std::size_t total = 0;
  Clock::time_point t0;

  // Sweep counters (low write rate: once per reference / format run).
  SweepStats sweep;
  std::mutex stats_mtx;

  void count_reference(bool cache_hit, double seconds, const ReferenceTierTelemetry* tier) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    if (cache_hit) {
      ++sweep.reference_cache_hits;
      sweep.reference_cache_seconds += seconds;
    } else {
      ++sweep.reference_solves;
      sweep.reference_seconds += seconds;
      if (tier != nullptr) {
        if (tier->dd_attempted) {
          ++sweep.reference_dd_solves;
          sweep.reference_dd_seconds += tier->dd_seconds;
          if (tier->dd_certified) ++sweep.reference_dd_certified;
          if (tier->promoted) ++sweep.reference_promotions;
        }
        sweep.reference_f128_seconds += tier->f128_seconds;
      }
    }
  }

  void count_format(double seconds) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    sweep.format_seconds += seconds;
  }

  void count_solve_fault(bool reference) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    if (reference)
      ++sweep.reference_faults;
    else
      ++sweep.solve_faults;
  }

  void count_canceled(std::size_t runs) {
    std::lock_guard<std::mutex> lk(stats_mtx);
    sweep.canceled_runs += runs;
  }

  /// The solve guard caught an abort. `format` is empty for stage
  /// "reference".
  void fault(const TestMatrix& tm, const char* stage, std::string format,
             const std::string& what) {
    if (sinks.empty()) return;
    FaultEvent e;
    e.matrix = tm.name;
    e.n = tm.n();
    e.nnz = tm.nnz();
    e.stage = stage;
    e.format = std::move(format);
    e.what = what;
    std::lock_guard<std::mutex> lk(event_mtx);
    for (const auto& s : sinks) s->on_fault(e);
  }

  void complete_run(const TestMatrix& tm, const FormatRun& run) {
    std::lock_guard<std::mutex> lk(event_mtx);
    ++executed;
    ++completed;
    if (sinks.empty()) return;
    RunEvent e;
    e.matrix = tm.name;
    e.n = tm.n();
    e.nnz = tm.nnz();
    e.run = run;
    e.done = completed;
    e.total = total;
    e.elapsed_seconds = seconds_since(t0);
    for (const auto& s : sinks) s->on_run(e);
  }

  void complete_reference_failure(const TestMatrix& tm, const std::string& failure,
                                  std::size_t retired) {
    std::lock_guard<std::mutex> lk(event_mtx);
    completed += retired;
    if (sinks.empty()) return;
    ReferenceEvent e;
    e.matrix = tm.name;
    e.n = tm.n();
    e.nnz = tm.nnz();
    e.failure = failure;
    e.done = completed;
    e.total = total;
    e.elapsed_seconds = seconds_since(t0);
    for (const auto& s : sinks) s->on_reference(e);
  }
};

std::string meta_mismatch_message(const JournalMeta& found, const JournalMeta& expected) {
  std::string msg =
      "checkpoint journal was written by a different sweep "
      "(nev/buffer/restarts/seed/formats/corpus size differ); ";
  msg += "expected formats [" + expected.formats + "] over " +
         std::to_string(expected.matrix_count) + " matrices, found [" + found.formats +
         "] over " + std::to_string(found.matrix_count) +
         " — rerun without --resume to start over";
  return msg;
}

}  // namespace

void Sweep::execute(ReferenceCache* ref_cache, SweepResult& out) const {
  const std::vector<TestMatrix>& dataset = corpus_;
  const std::vector<FormatId>& formats = formats_;
  const ExperimentConfig& cfg = cfg_;
  const std::size_t nm = dataset.size();
  const std::size_t nf = formats.size();

  EngineState st(sinks_);
  st.slots.assign(nm, std::vector<FormatRun>(nf));
  st.done.assign(nm, std::vector<char>(nf, 0));
  st.ref_failed.assign(nm, 0);
  st.ref_failures.resize(nm);

  std::map<std::string, std::size_t> matrix_index;
  if (!checkpoint_.empty()) {
    for (std::size_t i = 0; i < nm; ++i) {
      if (!matrix_index.emplace(dataset[i].name, i).second)
        throw std::runtime_error("checkpointing requires unique matrix names; duplicate '" +
                                 dataset[i].name + "'");
    }
    std::map<FormatId, std::size_t> format_index;
    for (std::size_t j = 0; j < nf; ++j) format_index.emplace(formats[j], j);

    const JournalMeta meta = make_journal_meta(cfg, formats, nm);
    bool journal_has_meta = false;
    if (resume_) {
      const JournalContents jc = read_journal(checkpoint_);
      if (jc.has_meta && !(jc.meta == meta))
        throw std::runtime_error(meta_mismatch_message(jc.meta, meta));
      journal_has_meta = jc.has_meta;
      st.sweep.journal_discarded_lines = jc.skipped_lines;
      // Entries whose matrix name is unknown, or whose recorded dimensions
      // no longer match the dataset (the matrix changed on disk since the
      // journal was written), are ignored: those runs recompute.
      for (const auto& [name, rf] : jc.reference_failures) {
        const auto it = matrix_index.find(name);
        if (it == matrix_index.end()) continue;
        const TestMatrix& tm = dataset[it->second];
        if (rf.n != tm.n() || rf.nnz != tm.nnz()) continue;
        st.ref_failed[it->second] = 1;
        st.ref_failures[it->second] = rf.failure;
        ++st.sweep.journal_replayed_failures;
      }
      for (const auto& [key, jr] : jc.runs) {
        const auto mi = matrix_index.find(key.first);
        const auto fi = format_index.find(key.second);
        if (mi == matrix_index.end() || fi == format_index.end()) continue;
        const TestMatrix& tm = dataset[mi->second];
        if (jr.n != tm.n() || jr.nnz != tm.nnz()) continue;
        st.slots[mi->second][fi->second] = jr.run;
        st.done[mi->second][fi->second] = 1;
        ++st.sweep.journal_replayed_runs;
      }
    }
    st.journal = std::make_unique<JournalWriter>(checkpoint_, /*truncate=*/!resume_);
    st.sweep.journal_truncated_bytes =
        static_cast<std::size_t>(st.journal->truncated_bytes());
    // Also (re)write the meta when resuming a journal whose meta line was
    // torn by a crash during the very first write — otherwise the journal
    // would never regain one and later resumes would skip validation.
    if (!resume_ || !journal_has_meta) st.journal->write_meta(meta);
  }

  // Pending work per matrix: format indices still to run. A matrix with a
  // journaled reference failure or with every format journaled needs no
  // reference solve at all.
  std::vector<std::vector<std::size_t>> pending(nm);
  for (std::size_t i = 0; i < nm; ++i) {
    if (st.ref_failed[i]) continue;
    for (std::size_t j = 0; j < nf; ++j) {
      if (!st.done[i][j]) pending[i].push_back(j);
    }
    st.total += pending[i].size();
  }
  st.t0 = Clock::now();

  // Cooperative cancellation: checked before work starts, never mid-solve.
  const std::atomic<bool>* cancel_flag = cancel_;
  const auto canceled = [cancel_flag] {
    return cancel_flag != nullptr && cancel_flag->load(std::memory_order_relaxed);
  };

  if (st.total > 0) {
    // Run either on a pool of our own or on a caller-shared one; in both
    // cases the TaskGroup scopes waiting (and error propagation) to this
    // sweep's tasks only.
    std::unique_ptr<ThreadPool> own_pool;
    if (pool_ == nullptr) own_pool = std::make_unique<ThreadPool>(threads_);
    TaskGroup group(pool_ != nullptr ? *pool_ : *own_pool);
    for (std::size_t i = 0; i < nm; ++i) {
      if (pending[i].empty()) continue;
      group.submit([&group, &canceled, &st, &dataset, &formats, &cfg, ref_cache, &pending, i] {
        const TestMatrix& tm = dataset[i];
        if (canceled()) {
          st.count_canceled(pending[i].size());
          return;
        }
        Rng rng(tm.name, cfg.seed);
        auto start = std::make_shared<const std::vector<double>>(rng.unit_vector(tm.n()));
        // Prerequisite: the tiered reference solve — served from the
        // persistent cache when one is attached and holds a valid entry for
        // this exact (matrix bits, config incl. tier, start vector),
        // recomputed (and re-stored) otherwise. Cached solutions are
        // bit-identical to fresh ones, so every downstream format run is
        // byte-identical either way. The solution is published const: it is
        // shared read-only across every format-run task of this matrix.
        std::shared_ptr<const ReferenceSolution> ref;
        {
          auto fresh = std::make_shared<ReferenceSolution>();
          bool cache_hit = false;
          Hash128 key;
          ReferenceTierTelemetry tier;
          const auto rt0 = Clock::now();
          if (ref_cache != nullptr) {
            key = reference_cache_key(tm.matrix, cfg, *start);
            cache_hit = ref_cache->load(key, *fresh);
          }
          if (!cache_hit) {
            // Solve guard: a reference solve that *aborts* (exception —
            // breakdown, bad_alloc, injected fault) retires its matrix as a
            // recorded reference failure instead of killing the sweep.
            // Unlike genuine non-convergence the aborted result is NOT
            // cached: the abort may be transient (memory pressure, a fault
            // injection) and must not poison warm reruns.
            try {
              if (int err = MFLA_FAILPOINT("engine.reference"); err != 0)
                throw std::runtime_error(std::string("injected reference error: ") +
                                         std::strerror(err));
              TieredReference tr = compute_reference_tiered(tm, cfg, *start);
              *fresh = std::move(tr.solution);
              tier = std::move(tr.tier);
              if (ref_cache != nullptr) ref_cache->store(key, *fresh);
            } catch (const std::exception& e) {
              *fresh = ReferenceSolution{};
              fresh->failure = std::string("reference solve aborted: ") + e.what();
              st.count_solve_fault(/*reference=*/true);
              st.fault(tm, "reference", "", e.what());
            }
          }
          st.count_reference(cache_hit, seconds_since(rt0), cache_hit ? nullptr : &tier);
          ref = std::move(fresh);
        }
        if (!ref->ok) {
          st.ref_failed[i] = 1;
          st.ref_failures[i] = ref->failure;
          if (st.journal)
            st.journal->write_reference_failure(tm.name, tm.n(), tm.nnz(), ref->failure);
          st.complete_reference_failure(tm, ref->failure, pending[i].size());
          return;
        }
        for (const std::size_t j : pending[i]) {
          group.submit([&canceled, &st, &dataset, &formats, &cfg, start, ref, i, j] {
            const TestMatrix& tmj = dataset[i];
            if (canceled()) {
              st.count_canceled(1);
              return;
            }
            // Solve guard: a format run that aborts (NaN/Inf-driven solver
            // exception, bad_alloc, injected fault) becomes a journaled
            // RunOutcome::fault row — one lost data point, not a lost sweep.
            const auto ft0 = Clock::now();
            FormatRun run;
            try {
              if (int err = MFLA_FAILPOINT("engine.format_run"); err != 0)
                throw std::runtime_error(std::string("injected format-run error: ") +
                                         std::strerror(err));
              run = run_format_dynamic(tmj, *ref, cfg, *start, formats[j]);
            } catch (const std::exception& e) {
              run = FormatRun{};
              run.format = formats[j];
              run.outcome = RunOutcome::fault;
              run.failure = std::string("solve aborted: ") + e.what();
              run.duration_seconds = seconds_since(ft0);
              st.count_solve_fault(/*reference=*/false);
              st.fault(tmj, "format", format_info(formats[j]).name, e.what());
            }
            st.slots[i][j] = std::move(run);
            st.count_format(st.slots[i][j].duration_seconds);
            if (st.journal) st.journal->write_run(tmj.name, tmj.n(), tmj.nnz(), st.slots[i][j]);
            st.complete_run(tmj, st.slots[i][j]);
          });
        }
      });
    }
    group.wait();  // rethrows the first task exception of THIS sweep, if any
  }
  out.stats = st.sweep;
  out.executed_runs = st.executed;

  // Assemble in dataset/format order, independent of completion order.
  out.results.assign(nm, MatrixResult{});
  for (std::size_t i = 0; i < nm; ++i) {
    MatrixResult& res = out.results[i];
    res.name = dataset[i].name;
    res.klass = dataset[i].klass;
    res.category = dataset[i].category;
    res.n = dataset[i].n();
    res.nnz = dataset[i].nnz();
    if (st.ref_failed[i]) {
      res.reference_ok = false;
      res.reference_failure = st.ref_failures[i];
      continue;
    }
    res.reference_ok = true;
    res.runs = std::move(st.slots[i]);
  }
}

}  // namespace mfla::api
