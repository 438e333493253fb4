#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(const char* name, double start_s, int64_t parent,
                      int64_t request) {
  return Add(name, start_s, start_s, parent, request);
}

void Tracer::End(int64_t span, double end_s) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_s = end_s;
}

int64_t Tracer::Add(const char* name, double start_s, double end_s,
                    int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_s, end_s, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child_s[i];
  }
  return self;
}

ptrider::util::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return ptrider::util::Status::IoError("cannot write trace " + path);
  }
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"benchmark driver\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld",
                 s.name, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i,
                 static_cast<long long>(s.parent));
    if (s.request >= 0) {
      std::fprintf(f, ", \"request\": %lld",
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    return ptrider::util::Status::IoError("cannot finish trace " + path);
  }
  return ptrider::util::Status::Ok();
}

}  // namespace perfbench
