#ifndef TRACLUS_PERFBENCH_TRACE_H_
#define TRACLUS_PERFBENCH_TRACE_H_

// In-memory span/counter recorder for the traced benchmark run.
//
// A span is one call into a layer, timed from the benchmark's own code: name,
// start, end, parent span, and the iteration it belongs to. Counters record
// the work a span did (segments, pairs, bytes) under the same iteration id.
// Nothing is written until the run ends (WriteJson), so recording costs two
// clock reads and a vector push per span.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace traclus::perfbench {

class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;  ///< -1 for a root span.
    std::string name;
    int iteration = 0;
    double start = 0.0;  ///< Seconds since the tracer was created.
    double end = 0.0;
  };
  struct Counter {
    std::string name;
    int iteration = 0;
    double value = 0.0;
  };

  /// RAII span: opens on construction, closes on destruction or End().
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.Open(name)) {}
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span and returns its duration in seconds.
    double End() {
      if (!open_) return tracer_.spans_[id_].end - tracer_.spans_[id_].start;
      open_ = false;
      return tracer_.Close(id_);
    }

   private:
    Tracer& tracer_;
    int id_;
    bool open_ = true;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  void set_iteration(int iteration) { iteration_ = iteration; }

  void Count(const std::string& name, double value) {
    counters_.push_back({name, iteration_, value});
  }

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Writes {"spans": [...], "counters": [...]} as the body of an already
  /// opened JSON object (the caller writes the braces and other members).
  void WriteJsonMembers(std::FILE* f) const {
    std::fprintf(f, "\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                   "\"iter\": %d, \"start\": %.9f, \"end\": %.9f}",
                   i == 0 ? "" : ",", s.id, s.parent, s.name.c_str(),
                   s.iteration, s.start, s.end);
    }
    std::fprintf(f, "],\n\"counters\": [");
    for (size_t i = 0; i < counters_.size(); ++i) {
      const Counter& c = counters_[i];
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"iter\": %d, \"value\": %.17g}",
                   i == 0 ? "" : ",", c.name.c_str(), c.iteration, c.value);
    }
    std::fprintf(f, "]");
  }

 private:
  int Open(const std::string& name) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.name = name;
    s.iteration = iteration_;
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    spans_.back().start = Now();
    return spans_.back().id;
  }

  double Close(int id) {
    const double end = Now();
    spans_[id].end = end;
    // Spans nest strictly (one caller, RAII scopes), so the span being
    // closed is always the innermost open one.
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return end - spans_[id].start;
  }

  std::chrono::steady_clock::time_point origin_;
  int iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<int> open_;
};

}  // namespace traclus::perfbench

#endif  // TRACLUS_PERFBENCH_TRACE_H_
