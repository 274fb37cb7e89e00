"""Build file of the benchmark.

Compiles the library (src/main/scala) and the benchmark program
(perfbench/src) with the Scala compiler that ships in the Spark
distribution, into .bench_build/classes at the root of the checkout. The
compile is skipped when no source file changed since the last build.

    python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "classes")
# Oracle.scala needs the DuckDB JDBC driver, which the Spark distribution
# does not ship; the benchmark does not use it.
SKIP = {"Oracle.scala"}


def spark_jars():
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, or
    the one beside `spark-submit` on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise SystemExit("build: no Spark distribution found (set SPARK_HOME)")
    return jars


def sources():
    lib = os.path.join(ROOT, "src", "main", "scala")
    out = []
    for base in (lib, os.path.join(HERE, "src")):
        for d, _, files in os.walk(base):
            out += [os.path.join(d, f) for f in files if f.endswith(".scala") and f not in SKIP]
    if not any(p.startswith(lib + os.sep) for p in out):
        raise SystemExit("build: no library sources under src/main/scala")
    return sorted(out)


def stamp(srcs, jars):
    h = hashlib.sha256()
    for p in srcs:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def build():
    """Compiles if needed; returns the classpath to run the benchmark with."""
    jars = spark_jars()
    srcs = sources()
    want = stamp(srcs, jars)
    stamp_file = os.path.join(BUILD, "stamp")
    classpath = CLASSES + os.pathsep + os.path.join(jars, "*")
    if os.path.isfile(stamp_file) and os.path.isdir(CLASSES):
        with open(stamp_file) as f:
            if f.read().strip() == want:
                return classpath
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + os.path.join(BUILD, "tmp"),
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-encoding", "UTF-8", "-d", tmp] + srcs
    print(f"build: compiling {len(srcs)} files", file=sys.stderr, flush=True)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise SystemExit("build: compile failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.replace(tmp, CLASSES)
    with open(stamp_file, "w") as f:
        f.write(want + "\n")
    return classpath


if __name__ == "__main__":
    print(build())
