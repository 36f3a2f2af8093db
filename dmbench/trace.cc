// In-memory spans around the benchmark's calls into each layer,
// written out as Chrome trace-event JSON when a run ends.

#include <atomic>
#include <cstdio>

#include "bench.h"

namespace dmbench {

namespace {

thread_local std::vector<Span> t_pending;

double Micros(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

void Tracer::AddPending(const Span& s) { t_pending.push_back(s); }

void Tracer::Claim(int64_t qid) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : t_pending) {
    s.qid = qid;
    spans_.push_back(s);
  }
  t_pending.clear();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::pair<double, int64_t>> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::pair<double, int64_t>> totals;
  for (const Span& s : spans_) {
    auto& [ms, n] = totals[s.name];
    ms += MillisBetween(s.start, s.end);
    ++n;
  }
  return totals;
}

dm::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return dm::Status::IOError("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"dmbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"qid\":%lld,\"n\":%lld}}%s\n",
                 s.name, Micros(origin_, s.start),
                 Micros(s.start, s.end), s.tid,
                 static_cast<long long>(s.qid), static_cast<long long>(s.arg),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  const bool ok = std::fflush(f) == 0;
  return std::fclose(f) == 0 && ok ? dm::Status::OK()
                                   : dm::Status::IOError("short write " + path);
}

dm::Status TracedSource::FetchBox(const dm::Box& box, bool allow_degraded,
                                  TimePoint deadline, NodeSink* sink,
                                  dm::BoxFetchStats* stats) {
  if (tracer_ == nullptr) {
    return inner_->FetchBox(box, allow_degraded, deadline, sink, stats);
  }
  if (shards_ != nullptr) {
    int64_t met = 0;
    for (int k = 0; k < shards_->num_shards(); ++k) {
      met += shards_->shard(k).mbr.Intersects(box) ? 1 : 0;
    }
    shard_fetches_.fetch_add(met);
  }
  const int64_t before = stats->nodes_fetched;
  Span s;
  s.name = "fetch";
  s.tid = ThreadId();
  s.start = Clock::now();
  dm::Status st = inner_->FetchBox(box, allow_degraded, deadline, sink, stats);
  s.end = Clock::now();
  s.arg = stats->nodes_fetched - before;
  tracer_->AddPending(s);
  return st;
}

}  // namespace dmbench
