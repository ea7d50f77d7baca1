#include "bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace pcqe::bench {

double Percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  double pos = q * static_cast<double>(sample.size() - 1);
  auto lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sample.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double RssMb() { return StatusFieldMb("VmRSS"); }
double PeakRssMb() { return StatusFieldMb("VmHWM"); }

void Fingerprint::AddRaw(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Fingerprint::Add(std::string_view bytes) {
  AddRaw(bytes.data(), bytes.size());
  AddInt(static_cast<int64_t>(bytes.size()));
}

std::string Fingerprint::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

int32_t SpanLog::Open(uint64_t request, int32_t parent, const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name;
  span.start = Clock::now();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanLog::Close(int32_t index) {
  if (!enabled_ || index < 0) return 0.0;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end = Clock::now();
  return SecondsBetween(span.start, span.end);
}

std::vector<double> SpanLog::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(SecondsBetween(span.start, span.end) * 1e6);
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs,
                Clock::time_point origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
  };
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.parent, static_cast<unsigned long long>(s.request), s.name,
                   ns(s.start), ns(s.end));
    }
  }
  std::fclose(f);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace pcqe::bench
