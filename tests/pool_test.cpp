// Thread pool and parallel matrix harness tests: submission-order results,
// exception propagation through futures, failure collection, and the key
// harness guarantee — identical simulation results for any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace mlp::sim {
namespace {

TEST(Pool, RunsEveryTaskAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(Pool, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(Pool, ExceptionPropagatesToTheCaller) {
  ThreadPool pool(2);
  std::future<int> ok = pool.submit([] { return 7; });
  std::future<int> bad = pool.submit(
      []() -> int { throw std::runtime_error("kernel exploded"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(Pool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(counter.load(), 32);
}

TEST(Matrix, ResultsComeBackInSubmissionOrder) {
  SuiteOptions options;
  options.records = 1024;
  std::vector<MatrixJob> jobs;
  const std::vector<std::string> order = {"variance", "count", "sample"};
  for (const std::string& bench : order) {
    jobs.push_back({arch::ArchKind::kMillipede, bench, options, bench});
  }
  const std::vector<MatrixResult> results = run_matrix(jobs, 3);
  ASSERT_EQ(results.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].job.tag, order[i]);
    EXPECT_EQ(results[i].result.workload, order[i]);
  }
}

TEST(Matrix, CollectsFailuresInsteadOfAborting) {
  SuiteOptions options;
  options.records = 1024;
  const std::vector<MatrixJob> jobs = {
      {arch::ArchKind::kMillipede, "count", options, ""},
      {arch::ArchKind::kMillipede, "no-such-bench", options, ""},
      {arch::ArchKind::kSsmc, "sample", options, ""},
  };
  const std::vector<MatrixResult> results = run_matrix(jobs, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("unknown benchmark"), std::string::npos);
  EXPECT_TRUE(results[2].ok());
}

// The harness's core guarantee: jobs share no mutable state, so thread
// count must not change a single bit of any result.
TEST(Matrix, DeterministicAcrossThreadCounts) {
  SuiteOptions options;
  options.records = 2048;
  std::vector<MatrixJob> jobs;
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc,
        arch::ArchKind::kGpgpu}) {
    for (const std::string& bench : {std::string("count"),
                                     std::string("variance")}) {
      jobs.push_back({kind, bench, options, ""});
    }
  }
  const std::vector<MatrixResult> serial = run_matrix(jobs, 1);
  const std::vector<MatrixResult> parallel = run_matrix(jobs, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    const arch::RunResult& a = serial[i].result;
    const arch::RunResult& b = parallel[i].result;
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.runtime_ps, b.runtime_ps);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.thread_instructions, b.thread_instructions);
    EXPECT_DOUBLE_EQ(a.final_clock_mhz, b.final_clock_mhz);
    EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
    EXPECT_EQ(a.stats, b.stats);  // every counter, bit for bit
  }
}

// ---- job preparation cache -------------------------------------------------

TEST(Prepare, KeyIsArchitectureIndependent) {
  SuiteOptions options;
  options.records = 1024;
  // Preparation (layout, records, image, reference) depends only on the
  // data-side knobs, so all eight architectures share one cache entry.
  const std::string millipede_key =
      prepare_key({arch::ArchKind::kMillipede, "count", options, ""});
  for (const arch::ArchKind kind : arch::all_arch_kinds()) {
    EXPECT_EQ(prepare_key({kind, "count", options, ""}), millipede_key);
  }
  // Compute-side knobs don't split the key either.
  SuiteOptions tweaked = options;
  tweaked.cfg.core.cores = 64;
  tweaked.cfg.millipede.pf_entries = 4;
  tweaked.cfg.dram.bus_efficiency = 0.9;
  EXPECT_EQ(prepare_key({arch::ArchKind::kSsmc, "count", tweaked, ""}),
            millipede_key);
}

TEST(Prepare, KeySplitsOnDataRelevantFields) {
  SuiteOptions options;
  options.records = 1024;
  const MatrixJob base{arch::ArchKind::kMillipede, "count", options, ""};
  const std::string key = prepare_key(base);

  MatrixJob other = base;
  other.bench = "sample";
  EXPECT_NE(prepare_key(other), key);
  other = base;
  other.options.records = 2048;
  EXPECT_NE(prepare_key(other), key);
  other = base;
  other.options.seed = 2;
  EXPECT_NE(prepare_key(other), key);
  other = base;
  other.options.record_barrier = true;
  EXPECT_NE(prepare_key(other), key);
  other = base;
  other.options.cfg.slab_layout = true;
  EXPECT_NE(prepare_key(other), key);
}

TEST(Prepare, RowSizingAndExplicitRecordsShareAnEntry) {
  SuiteOptions by_rows;
  by_rows.rows = 48;
  const MatrixJob rows_job{arch::ArchKind::kMillipede, "count", by_rows, ""};

  SuiteOptions by_records;
  by_records.records = records_for("count", by_rows.cfg, 48);
  const MatrixJob records_job{arch::ArchKind::kMillipede, "count", by_records,
                              ""};
  EXPECT_EQ(prepare_key(rows_job), prepare_key(records_job));
}

TEST(Prepare, CacheCountsHitsMissesAndEvicts) {
  PrepareCache cache(/*max_entries=*/2);
  SuiteOptions options;
  options.records = 1024;
  const MatrixJob count{arch::ArchKind::kMillipede, "count", options, ""};
  const MatrixJob sample{arch::ArchKind::kMillipede, "sample", options, ""};
  const MatrixJob variance{arch::ArchKind::kSsmc, "variance", options, ""};

  bool hit = true;
  cache.get(count, &hit);
  EXPECT_FALSE(hit);
  cache.get(count, &hit);
  EXPECT_TRUE(hit);
  cache.get(sample, &hit);
  EXPECT_FALSE(hit);
  cache.get(variance, &hit);  // capacity 2: evicts LRU entry (count)
  EXPECT_FALSE(hit);

  PrepareCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.image_bytes, 0u);

  cache.get(count, &hit);  // evicted above: a miss again
  EXPECT_FALSE(hit);
  cache.get(variance, &hit);  // still resident
  EXPECT_TRUE(hit);
}

// Eviction accounting under contention: many threads walking more keys than
// the cache holds, so insertions, evictions, and same-key misses (one
// prepares, the others wait for it) all overlap. Whatever interleaving
// happens, the counters must stay consistent
// — in particular image_bytes, which is adjusted on BOTH the insert and the
// evict side of the same critical section.
TEST(Prepare, ConcurrentEvictionKeepsAccountingConsistent) {
  constexpr std::size_t kCapacity = 3;
  constexpr int kKeys = 8;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 24;

  SuiteOptions options;
  options.records = 512;
  const auto job_for = [&options](int key) {
    SuiteOptions o = options;
    o.seed = static_cast<u64>(key + 1);  // seed splits the key, nothing else
    return MatrixJob{arch::ArchKind::kMillipede, "count", o, ""};
  };

  // Every key is the same benchmark at the same record count, so every
  // pristine image has ONE size; measure it on a singleton cache.
  u64 image_size = 0;
  {
    PrepareCache probe(/*max_entries=*/1);
    probe.get(job_for(0));
    image_size = probe.stats().image_bytes;
  }
  ASSERT_GT(image_size, 0u);

  PrepareCache cache(kCapacity);
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&cache, &job_for, t] {
        for (int i = 0; i < kRoundsPerThread; ++i) {
          // Offset walks: threads chase each other across the key ring, so
          // same-key races and cross-key evictions both fire constantly.
          cache.get(job_for((t + i) % kKeys));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }

  const PrepareCacheStats stats = cache.stats();
  // Every lookup was tallied exactly once, as either a hit or a miss.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<u64>(kThreads) * kRoundsPerThread);
  // More distinct keys than capacity: the cache ends exactly full, every
  // key missed at least once, and at least the overflow got evicted. Only
  // a miss can insert (and only an insert can evict), bounding evictions.
  EXPECT_EQ(stats.entries, kCapacity);
  EXPECT_GE(stats.misses, static_cast<u64>(kKeys));
  EXPECT_GE(stats.evictions, static_cast<u64>(kKeys) - kCapacity);
  EXPECT_LE(stats.evictions, stats.misses - stats.entries);
  // The corruption detector: with one image size everywhere, the byte tally
  // must be exactly entries × size — a double-counted lost race or an
  // eviction that forgot to subtract shows up here immediately.
  EXPECT_EQ(stats.image_bytes, kCapacity * image_size);
}

TEST(Prepare, ConcurrentMissesPrepareOnce) {
  constexpr int kThreads = 8;
  // Every thread passes a start barrier, then asks for one cold key.
  const auto race = [](const MatrixJob& job, PrepareCache* cache) {
    std::atomic<int> waiting{kThreads};
    std::vector<PreparedJobPtr> got(kThreads);
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        try {
          got[t] = cache->get(job);
        } catch (const SimError& e) {
          EXPECT_EQ(std::string(e.kind()), "config") << e.what();
          errors.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return std::make_pair(got, errors.load());
  };

  SuiteOptions options;
  options.rows = 96;
  const MatrixJob job{arch::ArchKind::kMillipede, "gda", options, ""};
  PrepareCache cache;
  const auto [got, errors] = race(job, &cache);
  EXPECT_EQ(errors, 0);
  for (const PreparedJobPtr& p : got) EXPECT_EQ(p, got.front());
  ASSERT_NE(got.front(), nullptr);
  PrepareCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<u64>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);

  // A preparation that fails reaches every caller as its SimError and
  // leaves nothing cached.
  SuiteOptions oversized;
  oversized.records = u64{1} << 62;  // records x 4 bytes wraps to 0
  const MatrixJob bad{arch::ArchKind::kMillipede, "count", oversized, ""};
  PrepareCache failing;
  EXPECT_EQ(race(bad, &failing).second, kThreads);
  stats = failing.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.image_bytes, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_THROW(failing.get(bad), SimError);
}

TEST(Prepare, CachedRunsAreBitIdenticalToUncached) {
  SuiteOptions options;
  options.records = 1024;
  std::vector<MatrixJob> jobs;
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc}) {
    for (const std::string& bench :
         {std::string("count"), std::string("variance")}) {
      jobs.push_back({kind, bench, options, ""});
    }
  }
  for (const MatrixJob& job : jobs) {
    PrepareCache cache;
    bool hit = true;
    const MatrixResult cold = run_job(job);  // prepares from scratch
    const MatrixResult warm1 = run_job(job, &cache, &hit);
    EXPECT_FALSE(hit);  // first touch of a fresh cache
    const MatrixResult warm2 = run_job(job, &cache, &hit);
    EXPECT_TRUE(hit);
    // Byte-level equality of the full stats document: metrics, every
    // counter, and the config echo.
    EXPECT_EQ(stats_json_run(cold), stats_json_run(warm1));
    EXPECT_EQ(stats_json_run(cold), stats_json_run(warm2));
  }
}

TEST(Matrix, SharedCacheKeepsThreadCountDeterminism) {
  SuiteOptions options;
  options.records = 2048;
  std::vector<MatrixJob> jobs;
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc,
        arch::ArchKind::kGpgpu, arch::ArchKind::kMulticore}) {
    for (const std::string& bench :
         {std::string("count"), std::string("variance")}) {
      jobs.push_back({kind, bench, options, ""});
    }
  }
  PrepareCache serial_cache;
  PrepareCache parallel_cache;
  const std::vector<MatrixResult> bare = run_matrix(jobs, 1);
  const std::vector<MatrixResult> serial = run_matrix(jobs, 1, &serial_cache);
  const std::vector<MatrixResult> parallel =
      run_matrix(jobs, 8, &parallel_cache);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(bare[i].ok()) << bare[i].error;
    // Cache on/off and 1-vs-8 threads: identical bytes either way.
    EXPECT_EQ(stats_json_run(bare[i]), stats_json_run(serial[i]));
    EXPECT_EQ(stats_json_run(bare[i]), stats_json_run(parallel[i]));
  }
  // Either way the 4-arch × 2-bench matrix prepares each bench exactly once:
  // concurrent misses on one key wait for one preparation.
  for (const PrepareCache* cache : {&serial_cache, &parallel_cache}) {
    const PrepareCacheStats stats = cache->stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 6u);
  }
}

}  // namespace
}  // namespace mlp::sim
