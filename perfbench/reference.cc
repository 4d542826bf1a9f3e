// Host-speed reference for the simulator timings: a fixed suite of
// integer, pointer-chasing and container work that shares no code with the
// program. Its inputs never change, so its CPU time moves only with how
// fast the host runs at the moment: on a shared machine, other tenants'
// load slows the suite and the simulator alike (the suite's time tracked
// single flower_100k trials with a correlation near 0.8 on a 4-core shared
// box). simwl.py runs it between trials and divides each trial's CPU time
// by it.
//
// Prints one JSON line: each kernel's CPU seconds and their sum, "total_s".

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>
#include <unordered_map>
#include <vector>

namespace {

volatile uint64_t g_sink;

double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Four interleaved chases round one random cycle of a 4 MiB ring.
double Chase() {
  const size_t n = (4u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> next(n), perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937_64 rng(12345);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (size_t i = 0; i < n; ++i) next[perm[i]] = perm[(i + 1) % n];
  uint32_t p[4];
  for (int c = 0; c < 4; ++c) p[c] = perm[c * (n / 4)];
  const double t0 = CpuSeconds();
  for (long i = 0; i < 5000000; ++i) {
    for (uint32_t& q : p) q = next[q];
  }
  const double t = CpuSeconds() - t0;
  g_sink = p[0] ^ p[1] ^ p[2] ^ p[3];
  return t;
}

double Sort() {
  std::mt19937_64 rng(7);
  std::vector<uint64_t> v(2000000);
  for (uint64_t& x : v) x = rng();
  const double t0 = CpuSeconds();
  std::sort(v.begin(), v.end());
  const double t = CpuSeconds() - t0;
  g_sink = v[1000];
  return t;
}

double Hash() {
  std::mt19937_64 rng(9);
  const double t0 = CpuSeconds();
  std::unordered_map<uint64_t, uint64_t> m;
  for (int i = 0; i < 400000; ++i) m[rng() % 1000000] += i;
  uint64_t s = 0;
  for (int i = 0; i < 2000000; ++i) {
    auto it = m.find(rng() % 1000000);
    if (it != m.end()) s += it->second;
  }
  const double t = CpuSeconds() - t0;
  g_sink = s;
  return t;
}

double Tree() {
  std::mt19937_64 rng(11);
  const double t0 = CpuSeconds();
  std::map<uint64_t, uint64_t> m;
  for (int i = 0; i < 300000; ++i) m[rng()] = i;
  uint64_t s = 0;
  for (int i = 0; i < 300000; ++i) {
    auto it = m.lower_bound(rng());
    if (it != m.end()) s += it->second;
  }
  const double t = CpuSeconds() - t0;
  g_sink = s;
  return t;
}

}  // namespace

int main() {
  const double chase = Chase();
  const double sort = Sort();
  const double hash = Hash();
  const double tree = Tree();
  std::printf(
      "{\"chase_s\": %.6f, \"sort_s\": %.6f, \"hash_s\": %.6f, "
      "\"tree_s\": %.6f, \"total_s\": %.6f}\n",
      chase, sort, hash, tree, chase + sort + hash + tree);
  return 0;
}
