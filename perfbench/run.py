#!/usr/bin/env python3
"""Run the SLFE benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run compiles the program and the
benchmark from source with sbt (offline) into the checkout and stores the
runtime classpath in .bench_build/; later runs start one JVM directly. The
last line of standard output is the run's JSON result. Any failure to build
or start exits non-zero with a one-line reason on standard error and no
result. Metric and workload names are documented in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")

# JVM heap: explicit, so the JVM never sizes itself from the machine.
# The largest workload keeps ~0.5 GB live after GC; the headroom keeps GC
# pauses short.
HEAP = "4g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def die(reason):
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a fixed order."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
                os.path.join(BENCH, "src")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Compile with sbt unless the sources are unchanged; return the classpath."""
    missing = [f for f in (os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "src", "main", "scala"))
               if not os.path.exists(f)]
    if missing:
        die(f"program sources not found: {', '.join(os.path.relpath(f, ROOT) for f in missing)}")
    digest = source_hash()
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as fh:
            stamp, cp = fh.read().split("\n", 1)
        if stamp == digest:
            return cp.strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                         f"-Djava.io.tmpdir={tmp}", "export Runtime/fullClasspath"],
                        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                        stdin=subprocess.DEVNULL, text=True)
    except FileNotFoundError:
        die("sbt not found on PATH")
    except subprocess.TimeoutExpired:
        die(f"sbt build did not finish within {BUILD_TIMEOUT_S}s")
    lines = [l for l in out.splitlines() if ".jar" in l and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write("".join(l + "\n" for l in out.splitlines() if l.startswith("[error]")))
        die(f"sbt build failed (exit {code})")
    os.makedirs(BUILD, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(digest + "\n" + lines[-1] + "\n")
    return lines[-1]


def expected_metrics():
    """Metric names BENCHMARK.json promises, per trace mode (None if absent)."""
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec):
        return None
    with open(spec) as fh:
        b = json.load(fh)
    return {0: {m["name"] for m in b["end_to_end"]}, 1: {m["name"] for m in b["per_layer"]}}


def validate(line, trace, expected):
    r = json.loads(line)
    if set(r) != {"correct", "attempted", "failed", "metrics"} or r["attempted"] < 1:
        die("malformed result line")
    if expected is not None and set(r["metrics"]) != expected[trace]:
        diff = set(r["metrics"]) ^ expected[trace]
        die(f"metrics differ from BENCHMARK.json: {', '.join(sorted(diff))}")
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload's code path once, traced, on a tiny graph")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        die("--workload is required")

    started = time.monotonic()
    cp = build()
    built = time.monotonic() - started > 60
    expected = expected_metrics()

    local = os.path.join(BUILD, "spark-local")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=local)
    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           "-cp", cp, "repro.perfbench.Main", "--seed", str(a.seed)]
    if a.smoke:
        cmd += ["--smoke"]
    else:
        record = os.path.join(BUILD, "records", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
        cmd += ["--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--record", record]
    timeout = (BUILD_TIMEOUT_S if built else RUN_TIMEOUT_S) - (time.monotonic() - started)
    try:
        code, out = run(cmd, max(timeout, 30), cwd=ROOT, env=env, stdout=subprocess.PIPE,
                        stdin=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        die("benchmark JVM overran its time limit")
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if code != 0 or not lines:
        die(f"benchmark JVM failed (exit {code})")

    if a.smoke:
        results = [validate(l, i % 2, expected) for i, l in enumerate(lines)]
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
        sys.exit(0 if ok else 1)
    validate(lines[-1], a.trace, expected)
    print(lines[-1])


if __name__ == "__main__":
    main()
