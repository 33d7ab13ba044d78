#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

namespace {

/// Ids of the spans the calling thread has open, innermost last.
thread_local std::vector<int64_t> t_open;

/// Total length of the union of [start, end) intervals.
int64_t union_length(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int Tracer::thread_index_locked() {
  const auto [it, inserted] =
      threads_.emplace(std::this_thread::get_id(), static_cast<int>(threads_.size()));
  return it->second;
}

int64_t Tracer::begin(std::string name, std::string layer, int64_t request) {
  if (!enabled_) return -1;
  const int64_t start = now_ns();
  const int64_t parent = t_open.empty() ? -1 : t_open.back();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{std::move(name), std::move(layer), id, parent, request,
                          start, start, thread_index_locked()});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int64_t id) {
  const int64_t stop = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(id)].end_ns = stop;
}

int64_t Tracer::add(std::string name, std::string layer, int64_t start_ns,
                    int64_t end_ns, int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{std::move(name), std::move(layer), id, parent, request,
                        start_ns, std::max(start_ns, end_ns), thread_index_locked()});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

Attribution attribute(const std::vector<Span>& spans, int64_t wall_start_ns,
                      int64_t wall_end_ns) {
  Attribution out;
  out.wall_seconds = static_cast<double>(wall_end_ns - wall_start_ns) * 1e-9;

  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::pair<int64_t, int64_t>> layer_spans, idle_spans;
  const auto clip = [&](const Span& s) {
    return std::make_pair(std::max(s.start_ns, wall_start_ns), std::min(s.end_ns, wall_end_ns));
  };
  for (const Span& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const auto& [cs, ce] : it->second) {
        covered.emplace_back(std::max(cs, s.start_ns), std::min(ce, s.end_ns));
      }
    }
    const int64_t self = (s.end_ns - s.start_ns) - union_length(std::move(covered));
    out.self_seconds[s.layer] += static_cast<double>(self) * 1e-9;
    if (s.layer == "idle") {
      idle_spans.push_back(clip(s));
    } else if (s.layer != "bench") {
      layer_spans.push_back(clip(s));
    }
  }
  const int64_t attributed = union_length(layer_spans);
  idle_spans.insert(idle_spans.end(), layer_spans.begin(), layer_spans.end());
  out.attributed_seconds = static_cast<double>(attributed) * 1e-9;
  out.idle_seconds = static_cast<double>(union_length(std::move(idle_spans)) - attributed) * 1e-9;
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::pair<std::string, std::string>>& metadata) {
  // Concurrent requests overlap in time, and "X" events on one track must
  // nest, so every request gets a lane: the first lane whose previous
  // request ended before this one started (greedy interval partitioning).
  std::map<int64_t, std::pair<int64_t, int64_t>> extent;  // request -> [start, end)
  for (const Span& s : spans) {
    if (s.request < 0) continue;
    auto [it, inserted] = extent.emplace(s.request, std::make_pair(s.start_ns, s.end_ns));
    if (!inserted) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::vector<std::pair<std::pair<int64_t, int64_t>, int64_t>> by_start;
  for (const auto& [req, ext] : extent) by_start.push_back({ext, req});
  std::sort(by_start.begin(), by_start.end());
  std::vector<int64_t> lane_end;
  std::map<int64_t, int> lane_of;
  for (const auto& [ext, req] : by_start) {
    size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > ext.first) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = ext.second;
    lane_of[req] = static_cast<int>(lane);
  }

  constexpr int kLaneBase = 1000;
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
  for (size_t i = 0; i < metadata.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(metadata[i].first) << "\": \""
       << json_escape(metadata[i].second) << '"';
  }
  os << "}, \"traceEvents\": [\n";
  std::set<int> threads;
  for (const Span& s : spans) threads.insert(s.thread);
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (int t : threads) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " << t
       << ", \"args\": {\"name\": \"bench thread " << t << "\"}}";
  }
  for (size_t lane = 0; lane < lane_end.size(); ++lane) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
       << kLaneBase + static_cast<int>(lane) << ", \"args\": {\"name\": \"request lane "
       << lane << "\"}}";
  }
  char buf[64];
  for (const Span& s : spans) {
    sep();
    const int tid = s.request >= 0 ? kLaneBase + lane_of[s.request] : s.thread;
    os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << tid << ", \"name\": \""
       << json_escape(s.name) << "\", \"cat\": \"" << json_escape(s.layer) << "\"";
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f", static_cast<double>(s.start_ns) * 1e-3);
    os << buf;
    std::snprintf(buf, sizeof buf, ", \"dur\": %.3f",
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << buf << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
