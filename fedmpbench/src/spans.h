#ifndef FEDMPBENCH_SPANS_H_
#define FEDMPBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fedmpbench {

// One timed call into a layer. `round` and `worker` (-1 when the call is not
// a worker's) identify which piece of the engine's work the call stands for;
// `parent` is the index of the span that was open when this one began (-1 at
// top level).
struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the log was created
  double end_s = 0.0;
  int parent = -1;
  int64_t round = -1;
  int64_t worker = -1;
};

// In-memory span recorder for one thread. Spans nest by call order: a span
// begun while another is open becomes its child. Nothing is written until
// WriteJsonl at the end of the run.
class SpanLog {
 public:
  SpanLog();

  // Opens a span and returns its id; End closes the innermost open span.
  int Begin(const char* name, int64_t round, int64_t worker);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Each span's duration minus the time its direct children cover.
  std::vector<double> SelfSeconds() const;

  // One JSON object per span, with its self time. Returns false on an I/O
  // error.
  bool WriteJsonl(const std::string& path) const;

  // Scoped span; a null log makes it a no-op.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int64_t round, int64_t worker)
        : log_(log), id_(log ? log->Begin(name, round, worker) : -1) {}
    ~Scope() {
      if (log_ != nullptr) log_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_;
  };

 private:
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace fedmpbench

#endif  // FEDMPBENCH_SPANS_H_
