"""Live workload: a 2-rank flowercdn-node TCP cluster driven over HTTP.

live_hot: closed loop, 2 connections (one per rank's gateway), on a catalog
of 2 websites x 16 objects. A warm-up walks every object through every
connection, so each entry peer holds the whole catalog of its website and
every measured request is served from the entry peer's own store. HTTP
parsing, the gateway, the event loop and response writing are the whole
cost; the simulator kernel, Chord and the TCP transport do almost nothing.

The load comes from perfbench_client (http_client.cc): one process, one
thread, sharing no code with the program, so a change to the program's own
load generator or HTTP parser cannot move the client side. README.md says
why closed loop is used only on a fully cached catalog, and why there is no
overlay-resolving live workload.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import tempfile
import time

import checks
from common import binary, gprof_module_self_s, proc_status_kb, traces_dir

WORKLOADS = ("live_hot",)
WORLD = 2
POPULATION = 200
LOCALITIES = 2
WEBSITES = 2
OBJECTS = 16             # per website
TIME_SCALE = 50          # simulated ms per wall ms

SOURCES = ("local", "petal", "directory", "origin")


def free_ports(n):
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def http_get(port, target, timeout=10):
    """One GET on a fresh connection: (status, headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                raise RuntimeError(f"GET {target}: connection closed")
            data += chunk
            head, sep, body = data.partition(b"\r\n\r\n")
            if not sep:
                continue
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ")[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers["content-length"])
            if len(body) >= length:
                return status, headers, body[:length]


def shape(ws, obj, status, headers):
    """A response as the checks see it (the client reports the same)."""
    return {"ws": ws, "obj": obj, "status": status,
            "length": int(headers.get("content-length", -1)),
            "source": headers.get("x-flowercdn-source", ""),
            "hit": headers.get("x-flowercdn-hit", ""),
            "lookup": headers.get("x-flowercdn-lookup-ms", ""),
            "measured": False, "count": 1}


def classify(source, lookup):
    """Where a response came from. The gateway labels an entry peer's
    own-store hit 'petal' with a zero lookup; it is reported as 'local'."""
    return "local" if source == "petal" and lookup == "0.0" else source


class Cluster:
    """Launches, probes, scrapes and stops the node processes."""

    def __init__(self, node_bin, workdir, seed, seconds):
        self.node_bin = node_bin
        self.workdir = workdir
        ports = free_ports(2 * WORLD)
        self.tcp_ports = ports[:WORLD]
        self.http_ports = ports[WORLD:]
        # Nodes are stopped with SIGTERM after the load; should the
        # benchmark die first, they end on their own shortly after.
        wall_budget_s = seconds + 120
        self.minutes = int(wall_budget_s * TIME_SCALE / 60) + 1
        self.seed = seed
        self.procs = []

    def launch(self):
        cluster = ",".join(f"127.0.0.1:{p}" for p in self.tcp_ports)
        for rank in range(WORLD):
            cwd = os.path.join(self.workdir, f"rank{rank}")
            os.makedirs(cwd, exist_ok=True)
            cmd = [self.node_bin, "--transport=tcp", f"--rank={rank}",
                   f"--cluster={cluster}",
                   f"--gateway-port={self.http_ports[rank]}",
                   f"--population={POPULATION}", f"--localities={LOCALITIES}",
                   f"--websites={WEBSITES}", f"--objects={OBJECTS}",
                   f"--seed={self.seed}", f"--minutes={self.minutes}",
                   f"--time-scale={TIME_SCALE}", "--quiet"]
            with open(os.path.join(cwd, "node.log"), "wb") as log_file:
                self.procs.append(subprocess.Popen(
                    cmd, cwd=cwd, stdout=log_file, stderr=subprocess.STDOUT))

    def wait_ready(self, deadline):
        """Set-up ends when every rank's gateway has answered a content GET
        with 200 and the ranks together host the whole population. Returns
        the probe responses (they count toward the gateways' counters)."""
        probes = []
        for port in self.http_ports:
            while True:
                self.check_alive(deadline)
                try:
                    status, headers, _ = http_get(port, "/0/0")
                except ConnectionRefusedError:
                    time.sleep(0.01)
                    continue
                probes.append(shape(0, 0, status, headers))
                if status == 200:
                    break
                time.sleep(0.01)
        while sum(self.statusz(r)["hosted_peers"] for r in range(WORLD)) < POPULATION:
            self.check_alive(deadline)
            time.sleep(0.02)
        return probes

    def check_alive(self, deadline):
        if time.monotonic() > deadline:
            raise RuntimeError("cluster did not come up in time")
        for p in self.procs:
            if p.poll() is not None:
                raise RuntimeError(f"node exited early with {p.returncode}")

    def statusz(self, rank):
        return json.loads(http_get(self.http_ports[rank], "/statusz")[2])

    def peak_rss_kb(self):
        return max(proc_status_kb(p.pid, "VmHWM") for p in self.procs)

    def stop(self):
        """SIGTERM (graceful) every node; returns their exit codes."""
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        codes = []
        for p in self.procs:
            try:
                codes.append(p.wait(timeout=20))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
                codes.append("killed")
        return codes

    def kill(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def run(workload, seed, seconds, trace, tmp_root):
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    try:
        untraced = run_once(seed, seconds, "opt", workdir, spans_out=None)
        if not trace:
            return untraced
        spans = os.path.join(traces_dir(), f"{workload}-{seed}.json")
        traced = run_once(seed, seconds, "opt", workdir, spans_out=spans)
        profiled = run_once(seed, seconds, "pg", workdir, spans_out=None)
        return layer_result(untraced, traced, profiled, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_once(seed, seconds, build, workdir, spans_out):
    rundir = tempfile.mkdtemp(prefix=f"{build}-", dir=workdir)
    cluster = Cluster(binary(build, "flowercdn_node"), rundir, seed, seconds)
    try:
        t_launch = time.monotonic()
        cluster.launch()
        probes = cluster.wait_ready(t_launch + 60)
        setup_s = time.monotonic() - t_launch
        cmd = [binary("opt", "perfbench_client"),
               "--ports", ",".join(map(str, cluster.http_ports)),
               "--node-pids", ",".join(str(p.pid) for p in cluster.procs),
               "--websites", str(WEBSITES), "--objects", str(OBJECTS),
               "--seed", str(seed), "--seconds", str(seconds)]
        if spans_out:
            cmd += ["--spans-out", spans_out]
        client = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                           text=True, timeout=seconds + 120).stdout)
        peak_rss_kb = cluster.peak_rss_kb()
        status = [cluster.statusz(r) for r in range(WORLD)]
        exit_codes = cluster.stop()
    except BaseException:
        cluster.kill()
        raise

    shapes = probes + client["shapes"]
    counts, measured = {}, {}
    for s in shapes:
        if s["status"] == 200:
            src = classify(s["source"], s["lookup"])
            counts[src] = counts.get(src, 0) + s["count"]
            if s["measured"]:
                measured[src] = measured.get(src, 0) + s["count"]
    served = {k: sum(st["gateway"][f"served_{k}"] for st in status)
              for k in ("petal", "directory", "origin")}
    errors = checks.live_responses(shapes)
    errors += checks.live_counts(counts, served)
    errors += checks.live_exit(exit_codes, [p.poll() for p in cluster.procs])
    return {"attempted": client["measured"], "failed": client["failed"],
            "errors": errors, "setup_s": setup_s, "client": client,
            "peak_rss_kb": peak_rss_kb, "status": status,
            "measured_sources": measured, "rundir": rundir}


def end_to_end(res):
    c = res["client"]
    hits = sum(n for src, n in res["measured_sources"].items() if src != "origin")
    rps = c["ok"] / c["window_s"]
    return {
        "run_s": (1000.0 / rps, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MiB"),
        "lookup_ms": (c["mean_ms"], "ms"),
        "hit_ratio": (hits / c["ok"], "fraction"),
        "setup_s": (res["setup_s"], "s"),
        "rps": (rps, "1/s"),
        "p50_ms": (c["p50_ms"], "ms"),
        "p99_ms": (c["p99_ms"], "ms"),
    }


def http_costs(res, workdir):
    """HttpRequestParser / BuildHttpResponse cost on this run's own request
    bytes and body sizes (its measured request mix), through the harness."""
    req_path = os.path.join(workdir, "requests.bin")
    size_path = os.path.join(workdir, "sizes.txt")
    with open(req_path, "wb") as reqs, open(size_path, "w") as sizes:
        for s in res["client"]["shapes"]:
            if s["measured"] and s["status"] == 200:
                n = min(s["count"], 100)
                reqs.write(f"GET /{s['ws']}/{s['obj']} HTTP/1.1\r\nHost: bench\r\n\r\n"
                           .encode() * n)
                sizes.write(f"{s['length']}\n" * n)
    out = subprocess.run([binary("opt", "perfbench_sim"), "http", "--requests",
                          req_path, "--body-sizes", size_path],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def layer_result(untraced, traced, profiled, workdir):
    c = untraced["client"]
    status = untraced["status"]
    http = http_costs(untraced, workdir)
    gmons = [os.path.join(profiled["rundir"], f"rank{r}", "gmon.out")
             for r in range(WORLD)]
    errors = untraced["errors"] + traced["errors"] + profiled["errors"]
    module_s = {}
    if all(os.path.exists(g) for g in gmons):
        module_s = gprof_module_self_s(binary("pg", "flowercdn_node"), gmons)
    else:
        errors.append("gprof: a node wrote no gmon.out")
    layer = {
        "net.node_cpu_us_per_req": c["node_cpu_s"] * 1e6 / c["ok"],
        "net.client_cpu_us_per_req": c["client_cpu_s"] * 1e6 / c["ok"],
        "net.http.parse_ns": http["parse_ns"],
        "net.http.build_ns": http["build_ns"],
        "net.event_loop.polls": sum(s["event_loop"]["polls"] for s in status),
        "net.tcp.frames_sent": sum(s["tcp"]["frames_sent"] for s in status),
        "net.tcp.bytes_sent": sum(s["tcp"]["bytes_sent"] for s in status),
        "net.tcp.backpressure_events": sum(s["tcp"]["backpressure_events"] for s in status),
        "net.tcp.reconnects": sum(s["tcp"]["reconnects"] for s in status),
        "trace.overhead_s": end_to_end(traced)["run_s"][0] - end_to_end(untraced)["run_s"][0],
        "trace.spans": traced["client"]["ok"],
    }
    for src in SOURCES:
        layer[f"net.served.{src}"] = untraced["measured_sources"].get(src, 0)
    for module, secs in module_s.items():
        layer[f"{module}.self_s"] = secs
    return {"attempted": untraced["attempted"], "failed": untraced["failed"],
            "errors": errors, "layer": layer}
