// perfbench_client — the benchmark's own closed-loop HTTP client for the
// live workload. Single-threaded, one keep-alive connection per gateway
// port, at most one request outstanding per connection. It shares no code
// with the program (not its HTTP parser, not its load generator), so a
// change to the program moves only the server side of the measurement.
//
//   perfbench_client --ports P0,P1 --websites W --objects O --seed N
//                    --seconds S --node-pids A,B [--spans-out FILE]
//
// Phases: a warm-up in which every connection fetches every object once
// (seeded order), then S seconds of uniformly random requests (seeded),
// then a drain of the outstanding ones. Prints one JSON object: mean,
// median and 99th percentile latency of every measured request, the
// measured window's length, the node processes' CPU over it, and the
// distinct response shapes (object, status, length, source, hit, lookup)
// with their counts so the caller can check every response.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench_client: %s\n", why.c_str());
  std::exit(1);
}

std::vector<long> SplitLongs(const std::string& s) {
  std::vector<long> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::atol(item.c_str()));
  return out;
}

double ProcCpuSeconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t close = stat.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc/<pid>/stat");
  std::stringstream ss(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 0; ss >> field; ++i) {
    if (i == 11) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 12) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

struct Request {
  int ws = 0;
  int obj = 0;
  bool measured = false;
  double sent = 0;
  double first_byte = 0;
};

// One response, as the checks need to see it.
using Shape = std::tuple<int, int, int, long, std::string, std::string,
                         std::string, bool>;  // ws obj status length source
                                              // hit lookup measured

struct Conn {
  int fd = -1;
  std::string in;
  std::deque<Request> pending;
  std::vector<std::pair<int, int>> walk;  // warm-up order, consumed back
};

struct Stats {
  std::map<Shape, uint64_t> shapes;
  std::vector<double> latency_ms;  // measured requests only
  uint64_t measured = 0;
  uint64_t failed = 0;
  std::vector<std::string> spans;
  bool keep_spans = false;
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// Parses every complete response at the head of conn.in. Returns false on a
// malformed response (the connection cannot be trusted after it).
bool Consume(Conn& conn, double now, Stats* stats) {
  while (!conn.pending.empty()) {
    size_t end = conn.in.find("\r\n\r\n");
    if (end == std::string::npos) return true;
    std::stringstream head(conn.in.substr(0, end));
    std::string line;
    std::getline(head, line);
    int status = -1;
    if (line.rfind("HTTP/1.1 ", 0) == 0) status = std::atoi(line.c_str() + 9);
    std::map<std::string, std::string> headers;
    while (std::getline(head, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      size_t colon = line.find(':');
      if (colon == std::string::npos) return false;
      size_t v = line.find_first_not_of(' ', colon + 1);
      headers[Lower(line.substr(0, colon))] =
          v == std::string::npos ? "" : line.substr(v);
    }
    auto cl = headers.find("content-length");
    if (status < 0 || cl == headers.end()) return false;
    char* endp = nullptr;
    long length = std::strtol(cl->second.c_str(), &endp, 10);
    if (endp == cl->second.c_str() || *endp != '\0' || length < 0) {
      return false;
    }
    if (conn.in.size() < end + 4 + static_cast<size_t>(length)) return true;
    conn.in.erase(0, end + 4 + static_cast<size_t>(length));
    Request req = conn.pending.front();
    conn.pending.pop_front();
    if (!conn.pending.empty() && !conn.in.empty()) {
      conn.pending.front().first_byte = now;
    }
    const std::string source = headers["x-flowercdn-source"];
    const std::string lookup = headers["x-flowercdn-lookup-ms"];
    ++stats->shapes[Shape{req.ws, req.obj, status, length, source,
                          headers["x-flowercdn-hit"], lookup, req.measured}];
    if (!req.measured) continue;
    ++stats->measured;
    if (status != 200) {
      ++stats->failed;
      continue;
    }
    stats->latency_ms.push_back((now - req.sent) * 1000.0);
    if (stats->keep_spans) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"target\":\"/%d/%d\",\"sent\":%.6f,\"first_byte\":%.6f,"
                    "\"last_byte\":%.6f,\"source\":\"%s\"}",
                    req.ws, req.obj, req.sent,
                    req.first_byte > 0 ? req.first_byte : now, now,
                    source == "petal" && lookup == "0.0" ? "local"
                                                         : source.c_str());
      stats->spans.push_back(buf);
    }
  }
  return true;
}

void Send(Conn& conn, int ws, int obj, bool measured) {
  char buf[96];
  int n = std::snprintf(buf, sizeof(buf),
                        "GET /%d/%d HTTP/1.1\r\nHost: bench\r\n\r\n", ws, obj);
  Request req;
  req.ws = ws;
  req.obj = obj;
  req.measured = measured;
  req.sent = Now();
  conn.pending.push_back(req);
  // Requests are tiny and at most one is outstanding: a blocking-style
  // write loop on the non-blocking socket never spins for long.
  for (int off = 0; off < n;) {
    ssize_t w = ::write(conn.fd, buf + off, static_cast<size_t>(n - off));
    if (w < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      Die(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<int>(w);
  }
}

int Connect(long port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Drives every connection until `next` has nothing more to send and every
// response is in, or until `until` (then drains). `next` returns false
// when the connection should send nothing more.
template <typename Next>
void Loop(std::vector<Conn>& conns, double until, bool measured, Next next,
          Stats* stats) {
  for (size_t i = 0; i < conns.size(); ++i) {
    int ws = 0, obj = 0;
    if (next(i, &ws, &obj)) Send(conns[i], ws, obj, measured);
  }
  std::vector<pollfd> fds(conns.size());
  char buf[1 << 16];
  double drain_deadline = 0;
  while (true) {
    bool any = false;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = pollfd{conns[i].fd, POLLIN, 0};
      any = any || !conns[i].pending.empty();
    }
    if (!any) return;
    if (::poll(fds.data(), fds.size(), 500) < 0 && errno != EINTR) {
      Die("poll");
    }
    const double now = Now();
    if (now >= until && drain_deadline == 0) drain_deadline = now + 30;
    if (drain_deadline > 0 && now > drain_deadline) {
      Die("responses missing after the drain period");
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) Die("connection closed by the gateway");
      if (!c.pending.empty() && c.pending.front().first_byte == 0) {
        c.pending.front().first_byte = now;
      }
      c.in.append(buf, static_cast<size_t>(n));
      if (!Consume(c, now, stats)) Die("malformed response");
      if (c.pending.empty() && now < until) {
        int ws = 0, obj = 0;
        if (next(i, &ws, &obj)) Send(c, ws, obj, measured);
      }
    }
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("bad flag");
    flags[argv[i] + 2] = argv[i + 1];
  }
  for (const char* need :
       {"ports", "websites", "objects", "seed", "seconds", "node-pids"}) {
    if (!flags.count(need)) Die(std::string("missing --") + need);
  }
  const std::vector<long> ports = SplitLongs(flags["ports"]);
  const std::vector<long> pids = SplitLongs(flags["node-pids"]);
  const int websites = std::atoi(flags["websites"].c_str());
  const int objects = std::atoi(flags["objects"].c_str());
  const double seconds = std::atof(flags["seconds"].c_str());
  std::mt19937_64 rng(std::strtoull(flags["seed"].c_str(), nullptr, 10));
  Stats stats;
  stats.keep_spans = flags.count("spans-out") > 0;

  std::vector<Conn> conns(ports.size());
  for (size_t i = 0; i < ports.size(); ++i) {
    conns[i].fd = Connect(ports[i]);
    for (int ws = 0; ws < websites; ++ws) {
      for (int obj = 0; obj < objects; ++obj) conns[i].walk.emplace_back(ws, obj);
    }
    std::shuffle(conns[i].walk.begin(), conns[i].walk.end(), rng);
  }

  // Warm-up: every object through every connection once.
  Loop(conns, 1e300, false,
       [&](size_t i, int* ws, int* obj) {
         if (conns[i].walk.empty()) return false;
         std::tie(*ws, *obj) = conns[i].walk.back();
         conns[i].walk.pop_back();
         return true;
       },
       &stats);

  // Measured window.
  std::uniform_int_distribution<int> pick(0, websites * objects - 1);
  auto node_cpu = [&]() {
    double s = 0;
    for (long pid : pids) s += ProcCpuSeconds(pid);
    return s;
  };
  const double node0 = node_cpu(), self0 = SelfCpuSeconds(), t0 = Now();
  Loop(conns, t0 + seconds, true,
       [&](size_t, int* ws, int* obj) {
         int k = pick(rng);
         *ws = k / objects;
         *obj = k % objects;
         return true;
       },
       &stats);
  const double window_s = Now() - t0;
  const double node_cpu_s = node_cpu() - node0;
  const double client_cpu_s = SelfCpuSeconds() - self0;
  for (Conn& c : conns) ::close(c.fd);

  std::vector<double>& lat = stats.latency_ms;
  if (lat.empty()) Die("no measured request succeeded");
  double sum = 0;
  for (double v : lat) sum += v;
  std::sort(lat.begin(), lat.end());

  if (stats.keep_spans) {
    std::ofstream out(flags["spans-out"]);
    out << "[";
    for (size_t i = 0; i < stats.spans.size(); ++i) {
      out << (i ? ",\n" : "") << stats.spans[i];
    }
    out << "]\n";
  }

  std::printf("{\"measured\":%llu,\"failed\":%llu,\"ok\":%zu,"
              "\"window_s\":%.6f,\"node_cpu_s\":%.6f,\"client_cpu_s\":%.6f,"
              "\"mean_ms\":%.6f,\"p50_ms\":%.6f,\"p99_ms\":%.6f,"
              "\"shapes\":[",
              static_cast<unsigned long long>(stats.measured),
              static_cast<unsigned long long>(stats.failed), lat.size(),
              window_s, node_cpu_s, client_cpu_s,
              sum / static_cast<double>(lat.size()), Percentile(lat, 0.50),
              Percentile(lat, 0.99));
  bool first = true;
  for (const auto& [shape, count] : stats.shapes) {
    const auto& [ws, obj, status, length, source, hit, lookup, measured] =
        shape;
    std::printf("%s{\"ws\":%d,\"obj\":%d,\"status\":%d,\"length\":%ld,"
                "\"source\":\"%s\",\"hit\":\"%s\",\"lookup\":\"%s\","
                "\"measured\":%s,\"count\":%llu}",
                first ? "" : ",", ws, obj, status, length,
                Escape(source).c_str(), Escape(hit).c_str(),
                Escape(lookup).c_str(), measured ? "true" : "false",
                static_cast<unsigned long long>(count));
    first = false;
  }
  std::printf("]}\n");
  return 0;
}
