#!/usr/bin/env python3
"""Starmie benchmark entry point.

    python3 perfbench/run.py --workload santos-wide --seed 1 --seconds 20 --trace 0

Builds the program and the harness from source (see build.py), runs one
workload in a single JVM and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.
Everything it writes stays under .bench_build/ and .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

ROOT = build.ROOT
OUT_DIR = os.path.join(ROOT, ".bench_out")
JVM_TIMEOUT_S = 170
HEAP = "2g"

# Spark on Java 17 needs these opened; the list matches build.sbt.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def git_rev():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    class_path, source_sha = build.build()
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # A fixed, pre-touched heap and the throughput collector keep heap
    # growth and concurrent GC threads out of the timed loop; -UsePerfData
    # stops the JVM writing hsperfdata outside the checkout.
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch",
            "-XX:+UseParallelGC", "-XX:-UsePerfData"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
              f"-Djava.io.tmpdir={tmp}",
              "-Dlog4j2.configurationFile="
              + os.path.join(ROOT, "perfbench", "log4j2.properties"),
              f"-Dperfbench.gitRev={git_rev()}",
              f"-Dperfbench.sourceSha={source_sha}",
              f"-Dperfbench.outDir={OUT_DIR}",
              "-cp", class_path, "repro.perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace)])

    # Spark's scratch space stays inside the checkout (spark.local.dir).
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"run: JVM exceeded {JVM_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if proc.returncode != 0 or result is None:
        sys.exit(f"run: JVM exited with {proc.returncode} and no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run: malformed result line")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
