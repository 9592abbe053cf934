#include "spans.h"

#include <cstdio>

#include "common/logging.h"

namespace fedmpbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanLog::Begin(const char* name, int64_t round, int64_t worker) {
  Span span;
  span.name = name;
  span.round = round;
  span.worker = worker;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  FEDMP_CHECK(!open_.empty() && open_.back() == id)
      << "spans must close innermost first";
  spans_[static_cast<size_t>(id)].end_s = Now();
  open_.pop_back();
}

std::vector<double> SpanLog::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  return self;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfSeconds();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"round\":%lld,"
                 "\"worker\":%lld,\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"self_s\":%.9f}\n",
                 i, s.name.c_str(), s.parent, static_cast<long long>(s.round),
                 static_cast<long long>(s.worker), s.start_s, s.end_s,
                 self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace fedmpbench
