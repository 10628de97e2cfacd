#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark itself (perfbench/src) into .bench_build/classes.

It calls the Scala compiler that ships with the Spark distribution, so the
build needs no dependency resolution and writes only under .bench_build.
Spark is found through SPARK_HOME, or else through spark-submit on PATH.

Run it from the repository root:  python3 perfbench/build.py
It prints the run-time classpath. A build whose sources are unchanged is
reused.
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCE_DIRS = ("src/main/scala", "perfbench/src")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = pathlib.Path(submit).resolve().parent.parent
    jars = pathlib.Path(home) / "jars"
    if not jars.is_dir():
        fail(f"no jars directory under SPARK_HOME={home}")
    return jars


def sources(root):
    files = []
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            fail(f"missing {d}: run from the root of a full checkout")
        files += sorted(base.rglob("*.scala"))
    return files


def build(root):
    """Compile if needed; return the run-time classpath."""
    jars = spark_jars()
    compiler = sorted(jars.glob("scala-compiler-2.13*.jar"))
    if not compiler:
        fail(f"no scala-compiler-2.13 jar in {jars}")
    srcs = sources(root)
    digest = hashlib.sha256(str(compiler[-1]).encode())
    for f in srcs:
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()

    out = root / BUILD_DIR
    classes = out / "classes"
    stamp_file = out / "classes.stamp"
    if not (stamp_file.is_file() and stamp_file.read_text() == stamp and classes.is_dir()):
        tmp = out / "classes.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        scala_jars = [str(p) for p in sorted(jars.glob("scala-*.jar"))]
        cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g",
               "-cp", os.pathsep.join(scala_jars), "scala.tools.nsc.Main",
               "-nowarn", "-classpath", str(jars / "*"), "-d", str(tmp)]
        cmd += [str(f) for f in srcs]
        print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("compilation failed")
        shutil.rmtree(classes, ignore_errors=True)
        tmp.rename(classes)
        stamp_file.write_text(stamp)
    return os.pathsep.join([str(classes), str(jars / "*")])


if __name__ == "__main__":
    print(build(pathlib.Path.cwd()))
