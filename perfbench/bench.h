// Shared pieces of the repository benchmark driver: options, the result
// report, sample statistics, the benchmark's own span log, and the drain of
// the program's span rings.

#ifndef ONEEDIT_PERFBENCH_BENCH_H_
#define ONEEDIT_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Steady-clock nanoseconds (the same base as obs::TraceNowNanos, so the
/// benchmark's spans and the program's spans share one timeline).
inline uint64_t NowNs() { return oneedit::obs::TraceNowNanos(); }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for journals and span dumps (created; wiped first).
  std::string dir;
};

/// Requests sent, succeeded and failed in one phase of a run.
struct PhaseCounts {
  std::string name;
  uint64_t reads_sent = 0, reads_ok = 0, reads_failed = 0;
  uint64_t edits_sent = 0, edits_ok = 0, edits_failed = 0;
};

/// Everything one workload run reports. Metric order is print order.
struct Report {
  std::vector<std::string> violations;
  /// Every read and edit sent, in every phase.
  uint64_t attempted = 0;
  /// Operations left without an answer: reads whose pin or decode returned
  /// an error. An edit always resolves (the clients wait for every future);
  /// an edit the program resolves as not applied is an outcome of the
  /// program, counted in the phase counts and edit_failed_frac, not here.
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layer;
  /// Free-form "key value" lines printed before the result.
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<PhaseCounts> phases;

  void Violation(const std::string& what) { violations.push_back(what); }
  void E2e(const std::string& name, double value) {
    e2e.emplace_back(name, value);
  }
  void Layer(const std::string& name, double value) {
    layer.emplace_back(name, value);
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Info(const std::string& key, double value);
};

/// Nearest-rank quantile of `samples` (sorted in place). 0 when empty.
double Quantile(std::vector<double>* samples, double q);

/// The q-quantile when at least 10 samples lie beyond it; otherwise the
/// highest quantile that still leaves 10 samples beyond it (reported in
/// `q_used`, so a short run never passes off a max as a p99).
double TailQuantile(std::vector<double>* samples, double q, double* q_used);

double Mean(const std::vector<double>& samples);

/// Mean of the middle half of `samples` (sorted in place): drops the lowest
/// and the highest quarter. 0 when empty.
double InterquartileMean(std::vector<double>* samples);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Bytes under `dir`, recursively, in MiB.
double DirMb(const std::string& dir);

// --- The benchmark's own spans ----------------------------------------------

/// Spans the benchmark records around its calls into the library's public
/// functions: name, start, end, parent (index in the same thread's buffer,
/// -1 for a root) and request id. Kept in memory per thread; written out
/// once, after the run. A disabled log records nothing.
class SpanLog {
 public:
  struct Rec {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  struct Buffer {
    std::vector<Rec> recs;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// One buffer per recording thread; owned by the log.
  Buffer* NewBuffer();

  /// Durations in microseconds of every span named `name` recorded at or
  /// after `since_ns`.
  std::vector<double> DurationsUs(const std::string& name,
                                  uint64_t since_ns) const;

  /// Writes every span as TSV (thread, index, parent, request, name,
  /// start_ns, end_ns). Returns the number written.
  size_t WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span into a thread's buffer (a no-op with a null buffer).
class BenchSpan {
 public:
  BenchSpan(SpanLog::Buffer* buffer, const char* name, uint64_t request,
            int64_t parent = -1)
      : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    index_ = static_cast<int64_t>(buffer_->recs.size());
    buffer_->recs.push_back({name, NowNs(), 0, parent, request});
  }
  ~BenchSpan() {
    if (buffer_ != nullptr) buffer_->recs[index_].end_ns = NowNs();
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanLog::Buffer* buffer_;
  int64_t index_ = -1;
};

// --- The program's spans ----------------------------------------------------

/// Collects the spans the library records into obs::TraceRecorder's
/// per-thread rings. Poll() must run more often than the busiest ring
/// wraps (4096 spans); duplicates across polls are dropped by span id.
class ProgramSpans {
 public:
  /// Drains the rings; keeps spans not seen before that started at or
  /// after the collection start (see Start).
  void Poll();
  /// Marks everything recorded so far as seen and starts collecting.
  void Start();

  const std::vector<oneedit::obs::SpanRecord>& spans() const {
    return spans_;
  }

  /// Self time (duration minus time covered by direct children) per span,
  /// in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Spans named `name` collected so far.
  size_t Count(const std::string& name) const;

 private:
  std::unordered_set<uint64_t> seen_;
  std::vector<oneedit::obs::SpanRecord> spans_;
  uint64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // ONEEDIT_PERFBENCH_BENCH_H_
