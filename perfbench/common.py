"""Shared helpers: building the program, statistics, process accounting."""

import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(BENCH_DIR), "src") + "/"

# The two builds of the same sources: the optimised one every measurement
# uses, and a gprof-instrumented one the traced runs use for per-module
# self time.
BUILDS = {
    "opt": [],
    "pg": ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
}
TARGETS = ["perfbench_sim", "perfbench_client", "perfbench_reference", "flowercdn_node"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    """Build directory inside the checkout (relative to the working dir)."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def traces_dir():
    """Where traced runs write their spans (inside the build directory)."""
    path = os.path.join(build_root(), "traces")
    os.makedirs(path, exist_ok=True)
    return path


def build_dir(kind):
    return os.path.join(build_root(), kind)


def build_all():
    """Configures (once) and builds both trees. Raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for kind, flags in BUILDS.items():
        out = build_dir(kind)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-G", "Ninja", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + flags
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def binary(kind, name):
    if name == "flowercdn_node":
        return os.path.join(build_dir(kind), "flowercdn", "tools", "flowercdn-node")
    return os.path.join(build_dir(kind), name)


def median(values):
    return statistics.median(values)


def proc_status_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


# gprof flat profile -> self seconds per src/<module>, attributing each
# function by the source file its definition comes from (nm -l).
MODULES = ["simcore", "sim", "chord", "flower", "gossip", "storage", "util",
           "metrics", "obs", "expt", "wire", "net"]


def gprof_module_self_s(binary_path, gmon_paths):
    flat = subprocess.run(["gprof", "-b", "-p", binary_path] + list(gmon_paths),
                          check=True, capture_output=True, text=True).stdout
    syms = subprocess.run(["nm", "-C", "-l", "--defined-only", binary_path],
                          check=True, capture_output=True, text=True).stdout
    file_of = {}
    for line in syms.splitlines():
        parts = line.split(" ", 2)
        if len(parts) < 3 or "\t" not in parts[2]:
            continue
        name, loc = parts[2].rsplit("\t", 1)
        file_of.setdefault(name, loc.rsplit(":", 1)[0])
    self_s = {m: 0.0 for m in MODULES}
    self_s["other"] = 0.0
    for line in flat.splitlines():
        cols = line.split(None, 3)
        if len(cols) < 4:
            continue
        try:
            float(cols[0])
            secs = float(cols[2])
        except ValueError:
            continue
        # Rows of functions never called through mcount have no call-count
        # columns: "%time cumulative self name".
        with_calls = line.split(None, 6)
        name = with_calls[6] if with_calls[3].isdigit() and len(with_calls) == 7 else cols[3]
        path = file_of.get(name, "")
        module = "other"
        if path.startswith(SRC_ROOT):
            top = path[len(SRC_ROOT):].split("/", 1)[0]
            if top in self_s:
                module = top
        self_s[module] += secs
    return self_s
