#!/usr/bin/env python3
"""Repository benchmark: S/C MV refresh and optimizer workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload refresh-io --seed 1 --seconds 30 --trace 0

Builds the program and the benchmark from source into .bench_build/ when the
sources changed, runs one JVM (Spark local mode), streams its report and
prints, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero without that line when the build, the run
or the result is bad. Workloads and metrics are listed in BENCHMARK.json and
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("refresh-io", "refresh-compute", "plan-dag100")
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these module opens outside spark-submit.
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
DRIVER_HEAP = "2g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spark_home():
    """$SPARK_HOME, else the pip-installed pyspark package, which holds the
    same jars/ layout."""
    if os.environ.get("SPARK_HOME"):
        return Path(os.environ["SPARK_HOME"])
    try:
        import pyspark
    except ImportError:
        fail("set SPARK_HOME to a Spark 4 distribution")
    return Path(pyspark.__file__).parent


def sources():
    files = []
    for d in (ROOT / "src" / "main" / "scala", BENCH_DIR / "src"):
        if not d.is_dir():
            fail(f"missing source directory {d.relative_to(ROOT)}")
        files += sorted(d.rglob("*.scala"))
    return files + [BENCH_DIR / "build.sh"]


def build(spark):
    """Compile into BUILD_DIR/classes unless the stamp matches the sources."""
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    digest = h.hexdigest()
    classes = BUILD_DIR / "classes"
    stamp = BUILD_DIR / "stamp"
    if stamp.is_file() and stamp.read_text() == digest and classes.is_dir():
        return classes
    print("perfbench: building from source", file=sys.stderr)
    stamp.unlink(missing_ok=True)
    r = subprocess.run(["bash", str(BENCH_DIR / "build.sh"), str(classes)], cwd=ROOT,
                       env={**os.environ, "SPARK_HOME": str(spark)})
    if r.returncode != 0:
        fail("build failed")
    stamp.write_text(digest)
    return classes


def check_result(line, trace):
    """Check the result line's shape and, against BENCHMARK.json, that it
    holds exactly the end-to-end (untraced) or per-layer (traced) metrics."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")


def main():
    # Turn SIGTERM into an exception so the JVM is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    spark = spark_home()
    classes = build(spark)
    work = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    cmd = (["java", f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData", "-Djdk.reflect.useDirectMethodHandle=false",
            f"-Djava.io.tmpdir={work / 'tmp'}",
            f"-Dlog4j2.configurationFile={BENCH_DIR / 'log4j2.properties'}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in JVM_OPENS]
           + ["-cp", f"{classes}{os.pathsep}{spark / 'jars' / '*'}", "perfbench.PerfBench",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--work", str(work)])
    result_line = None
    # Keep Spark's scratch space inside the run directory.
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_LOCAL_DIRS", "LOCAL_DIRS")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith('{"correct"'):
                result_line = line.strip()
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        fail(f"benchmark JVM exited with code {rc}")
    if result_line is None:
        fail("no result line")
    try:
        check_result(result_line, a.trace)
    except (OSError, ValueError, TypeError, KeyError) as e:
        fail(f"bad result line ({e}): {result_line[:200]}")
    print(result_line)


if __name__ == "__main__":
    main()
