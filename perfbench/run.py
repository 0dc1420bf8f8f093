#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run in a checkout compiles the
library sources (src/main/scala) together with this directory's benchmark code
with sbt; later runs reuse the build while no source file changes. The
benchmark then runs in its own JVM on Spark local[4]. The last line of
standard output is one JSON object with the run's result; `--workload all`
runs every workload in turn, each printing its own result line.

Build output and run results go under $CARGO_TARGET_DIR (default
.bench_build) in the repository root.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIBRARY = ROOT / "src" / "main" / "scala"
WORKLOADS = ["sweep", "table3-table4"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# JDK 17 module opens that spark-submit passes to its JVMs.
JAVA_OPENS = [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    ]
]


def source_stamp():
    """Hash of every file the build reads from the repository."""
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (HERE / "src" / "main", LIBRARY):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(out):
    """Compiles the benchmark if needed and returns its runtime classpath."""
    stamp = source_stamp()
    cp_file = out / "perfbench.classpath"
    if cp_file.exists():
        saved_stamp, _, cp = cp_file.read_text().partition("\n")
        if saved_stamp == stamp and cp.strip():
            return cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log = out / "build.log"
    with open(log, "w") as f:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
             "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=f, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    lines = log.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines[-40:]) + "\nperfbench: build failed\n")
        sys.exit(3)
    cp = lines[-1].strip()
    cp_file.write_text(stamp + "\n" + cp + "\n")
    return cp


def git_commit():
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not LIBRARY.is_dir():
        sys.stderr.write(f"perfbench: library sources {LIBRARY} not found; "
                         "run from a full checkout\n")
        return 2
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    classpath = build(out)

    if args.workload == "all":
        return max(run(w, args, out, classpath) for w in WORKLOADS)
    return run(args.workload, args, out, classpath)


def run(workload, args, out, classpath):
    """Runs one workload in its own JVM; returns its exit code."""
    tmp = out / "tmp"
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" \
        if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), *JAVA_OPENS, "-Xms2g", "-Xmx2g", "-XX:-UsePerfData",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={out / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out / "results"),
           "--commit", git_commit()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
