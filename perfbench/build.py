#!/usr/bin/env python3
"""Build file of the Starmie benchmark.

Compiles the program (every Scala file under src/main/scala) and the
benchmark harness (perfbench/src) with the Scala compiler that ships in the
Spark distribution, so no sbt, network or package cache is needed. Output
goes to .bench_build/ at the root of the checkout and is reused while no
source file changes.

    python3 perfbench/build.py            # build if stale, print class path
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
HARNESS_SRC = os.path.join(ROOT, "perfbench", "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# The one compile dependency of the program that the Spark distribution
# lacks; files importing it (the test-only DuckDB oracle) are left out.
SKIP_MARKER = "org.duckdb"


def spark_jars():
    home = os.environ.get("SPARK_HOME") or "/opt/spark"
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        raise SystemExit(f"build: no Spark jars at {jars}; set SPARK_HOME")
    return jars


def scala_files(top, skip_marker=None):
    out = []
    for d, _, names in os.walk(top):
        for n in sorted(names):
            if n.endswith(".scala"):
                p = os.path.join(d, n)
                if skip_marker:
                    with open(p, encoding="utf-8") as f:
                        if skip_marker in f.read():
                            continue
                out.append(p)
    return sorted(out)


def digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def scalac(jars, out_dir, class_path, files):
    os.makedirs(out_dir, exist_ok=True)
    # -UsePerfData and the tmpdir keep the compiler's JVM from writing
    # outside the checkout.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", out_dir]
    if class_path:
        cmd += ["-cp", class_path]
    subprocess.run(cmd + files, check=True, stdout=sys.stderr)


def build():
    """Compile when stale. Returns (class path, program source digest)."""
    if not os.path.isdir(PROGRAM_SRC):
        raise SystemExit(f"build: program sources missing: {PROGRAM_SRC}")
    jars = spark_jars()
    program = scala_files(PROGRAM_SRC, SKIP_MARKER)
    harness = scala_files(HARNESS_SRC)
    if not program or not harness:
        raise SystemExit("build: no Scala sources found")
    main_out = os.path.join(BUILD_DIR, "main")
    bench_out = os.path.join(BUILD_DIR, "bench")
    stamp_file = os.path.join(BUILD_DIR, "stamp")
    stamp = digest(program + harness)
    current = open(stamp_file).read() if os.path.exists(stamp_file) else ""
    if current != stamp:
        subprocess.run(["rm", "-rf", main_out, bench_out, stamp_file], check=True)
        scalac(jars, main_out, None, program)
        scalac(jars, bench_out, main_out, harness)
        with open(stamp_file, "w") as f:
            f.write(stamp)
    class_path = os.pathsep.join([bench_out, main_out, os.path.join(jars, "*")])
    return class_path, digest(program)


if __name__ == "__main__":
    print(build()[0])
