#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  info.emplace_back(key, buf);
}

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(samples->size()))) - 1;
  return (*samples)[index];
}

double TailQuantile(std::vector<double>* samples, double q, double* q_used) {
  const double n = static_cast<double>(samples->size());
  double used = q;
  if (n > 0 && n * (1.0 - q) < 10.0) used = std::max(0.5, 1.0 - 10.0 / n);
  if (q_used != nullptr) *q_used = used;
  return Quantile(samples, used);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double InterquartileMean(std::vector<double>* samples) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t cut = samples->size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < samples->size() - cut; ++i) sum += (*samples)[i];
  return sum / static_cast<double>(samples->size() - 2 * cut);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double DirMb(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uintmax_t bytes = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

SpanLog::Buffer* SpanLog::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->recs.reserve(1 << 16);
  return buffers_.back().get();
}

std::vector<double> SpanLog::DurationsUs(const std::string& name,
                                         uint64_t since_ns) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const Rec& rec : buffer->recs) {
      if (rec.start_ns >= since_ns && rec.end_ns >= rec.start_ns &&
          name == rec.name) {
        out.push_back(static_cast<double>(rec.end_ns - rec.start_ns) / 1e3);
      }
    }
  }
  return out;
}

size_t SpanLog::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n";
  size_t written = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& recs = buffers_[t]->recs;
    for (size_t i = 0; i < recs.size(); ++i) {
      out << t << '\t' << i << '\t' << recs[i].parent << '\t'
          << recs[i].request << '\t' << recs[i].name << '\t'
          << recs[i].start_ns << '\t' << recs[i].end_ns << '\n';
      ++written;
    }
  }
  return written;
}

void ProgramSpans::Start() {
  for (const auto& span : oneedit::obs::TraceRecorder::Global().Drain()) {
    seen_.insert(span.span_id);
  }
  spans_.clear();
  start_ns_ = NowNs();
}

void ProgramSpans::Poll() {
  for (const auto& span : oneedit::obs::TraceRecorder::Global().Drain()) {
    if (!seen_.insert(span.span_id).second) continue;
    if (span.start_ns < start_ns_) continue;
    spans_.push_back(span);
  }
}

std::map<std::string, std::vector<double>> ProgramSpans::SelfTimesUs() const {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const auto& span : spans_) {
    if (span.parent_id != 0) child_ns[span.parent_id] += span.duration_ns();
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& span : spans_) {
    uint64_t self = span.duration_ns();
    auto it = child_ns.find(span.span_id);
    if (it != child_ns.end()) self = self > it->second ? self - it->second : 0;
    out[span.name].push_back(static_cast<double>(self) / 1e3);
  }
  return out;
}

size_t ProgramSpans::Count(const std::string& name) const {
  size_t n = 0;
  for (const auto& span : spans_) n += name == span.name ? 1 : 0;
  return n;
}

}  // namespace perfbench
