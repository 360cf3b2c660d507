#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace mayflower::perfbench {

std::uint32_t SpanRecorder::intern(std::string_view name) {
  const auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::int32_t SpanRecorder::open(std::uint32_t name) {
  if (!enabled_) return kNoSpan;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.job = job_;
  s.start_ns = now_ns();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (index == kNoSpan) return;
  MAYFLOWER_ASSERT_MSG(!stack_.empty() && stack_.back() == index,
                       "spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Direct children of every span, as (start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    MAYFLOWER_ASSERT_MSG(s.end_ns >= s.start_ns, "span still open");
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // covered up to here
    for (const auto& [begin, end] : kids) {
      const std::int64_t from = std::max(begin, reach);
      const std::int64_t to = std::min(end, s.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool write_chrome_trace(const std::string& path, const SpanRecorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const auto& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Names are benchmark-chosen identifiers: no characters to escape.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"job\":%lld}}",
                 i == 0 ? "" : ",\n", rec.names()[s.name].c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<long long>(s.job));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mayflower::perfbench
