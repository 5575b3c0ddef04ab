#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

thread_local std::vector<Span> t_pending;

std::string layerOf(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::uint32_t threadLane() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

std::uint32_t Tracer::record(Span s) {
  if (s.id == 0) s.id = newId();
  const std::uint32_t id = s.id;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return id;
}

void Tracer::stage(std::string name, std::uint64_t start, std::uint64_t end) {
  Span s;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  s.lane = threadLane();
  t_pending.push_back(std::move(s));
}

void Tracer::park(const void* key) {
  std::vector<Span> spans = std::move(t_pending);
  t_pending.clear();
  std::lock_guard<std::mutex> lk(mu_);
  parked_[key] = std::move(spans);
}

std::vector<Span> Tracer::claim(const void* key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = parked_.find(key);
  if (it == parked_.end()) return {};
  std::vector<Span> spans = std::move(it->second);
  parked_.erase(it);
  return spans;
}

Tracer::Rollup Tracer::rollup(const std::string& rootName) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<std::uint32_t, std::size_t> byId;
  for (std::size_t i = 0; i < spans_.size(); ++i) byId[spans_[i].id] = i;
  std::unordered_map<std::uint32_t, std::uint64_t> childNs;
  for (const Span& s : spans_)
    if (s.parent != 0) childNs[s.parent] += s.end - s.start;
  auto rootOf = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent != 0) {
      const auto it = byId.find(cur->parent);
      if (it == byId.end()) return static_cast<const Span*>(nullptr);
      cur = &spans_[it->second];
    }
    return cur;
  };

  Rollup r;
  double unattributedNs = 0, totalNs = 0;
  std::map<std::string, double> selfNs;
  for (const Span& s : spans_) {
    const Span* root = rootOf(s);
    if (root == nullptr || root->name != rootName) continue;
    const std::uint64_t dur = s.end - s.start;
    const std::uint64_t kids = childNs.count(s.id) ? childNs.at(s.id) : 0;
    const double self = dur > kids ? static_cast<double>(dur - kids) : 0.0;
    if (&s == root) {
      ++r.roots;
      unattributedNs += self;
      totalNs += static_cast<double>(dur);
    } else {
      selfNs[layerOf(s.name)] += self;
    }
  }
  if (r.roots == 0) return r;
  const double perRoot = 1e-6 / static_cast<double>(r.roots);
  for (const auto& [layer, ns] : selfNs) r.self_ms[layer] = ns * perRoot;
  r.unattributed_ms = unattributedNs * perRoot;
  r.total_ms = totalNs * perRoot;
  return r;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans_) t0 = std::min(t0, s.start);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                 "\"parent\": %u, \"req\": %u}}%s\n",
                 s.name.c_str(), s.lane,
                 static_cast<double>(s.start - t0) * 1e-3,
                 static_cast<double>(s.end - s.start) * 1e-3, s.id, s.parent,
                 s.req, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* t, const char* name, std::uint32_t parent,
                       std::uint32_t req)
    : t_(t), name_(name), parent_(parent), req_(req), start_(now()) {
  if (t_ != nullptr) id_ = t_->newId();
}

ScopedSpan::~ScopedSpan() {
  if (t_ == nullptr) return;
  Span s;
  s.name = name_;
  s.start = start_;
  s.end = now();
  s.id = id_;
  s.parent = parent_;
  s.req = req_;
  s.lane = threadLane();
  t_->record(std::move(s));
}

}  // namespace perfbench
