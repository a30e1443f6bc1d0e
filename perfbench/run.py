#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run builds the program's
libraries, the `mbird` CLI and the harness from source into
.bench_build/perfbench (RelWithDebInfo, the build type the repository
defaults to); later runs only check that the build is current. The harness
prints the run's record and, as its last stdout line, the result object
(`correct`, `attempted`, `failed`, `metrics`). The exit status is nonzero
when any op failed or the run could not complete.

--selftest runs every workload at a tiny size, traced and untraced, checks
that each metric BENCHMARK.json names is printed with its unit, and plants
a wrong expected answer to show that every oracle can fail.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"
HARNESS_TIMEOUT_S = 175
WORKLOADS = ["compile_cold", "serve_compile", "echo_bulk", "stub_call"]

_child = None


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _terminate(signum, _frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no program sources next to perfbench/ (expected src/CMakeLists.txt)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", "perfbench", "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_id():
    """Identify the measured code: a digest of src/ (checkouts are not git)."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_harness(args, capture=False):
    """Run the harness in its own process group; returns (rc, stdout)."""
    global _child
    workdir = Path(".bench_build") / "runs" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), *args,
           "--mbird", str(BUILD / "mbird" / "mbird"),
           "--workdir", str(workdir), "--source-id", source_id()]
    try:
        _child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  start_new_session=True, text=True)
        try:
            out, _ = _child.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(_child.pid, signal.SIGKILL)
            out, _ = _child.communicate()
            log(f"harness exceeded {HARNESS_TIMEOUT_S}s")
            return 1, out
        rc = _child.returncode
    finally:
        _child = None
        shutil.rmtree(workdir, ignore_errors=True)
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return rc, out


def last_result(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_harness(["--workload", wl, "--seed", "7", "--seconds",
                                   "2", "--trace", str(trace), "--tiny"],
                                  capture=True)
            res = last_result(out)
            if rc != 0 or res is None or not res["correct"]:
                problems.append(f"{wl} trace={trace}: rc={rc}, result={res}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got if k in want[trace]
                               and got[k] != want[trace][k])
                problems.append(f"{wl} trace={trace}: missing {missing}, "
                                f"extra {extra}, wrong units {units}")
            log(f"{wl} trace={trace}: {len(got)} metrics, "
                f"{res['attempted']} ops checked")
        # A planted wrong expectation must land in `failed` and the exit code.
        rc, out = run_harness(["--workload", wl, "--seed", "7", "--seconds", "1",
                               "--trace", "0", "--tiny", "--plant-wrong"],
                              capture=True)
        res = last_result(out)
        if rc == 0 or res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{wl}: planted wrong answer not caught "
                            f"(rc={rc}, result={res})")
        else:
            log(f"{wl}: planted wrong answer caught ({res['failed']} failed)")
    for p in problems:
        log("SELFTEST FAIL " + p)
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)
    if not build():
        log("build failed")
        return 1
    if a.selftest:
        return selftest()
    if a.workload is None:
        ap.error("--workload is required")
    rc, out = run_harness(["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if last_result(out) is None:
        log("the harness printed no result")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
