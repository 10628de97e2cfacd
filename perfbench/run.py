#!/usr/bin/env python3
"""RLC-index benchmark: builds the program from source, then runs one workload.

  python3 perfbench/run.py --workload seq-build|dist-build \
      --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; see perfbench/README.md
for the workloads and metrics.
"""
import os
import pathlib
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

HEAP = "4g"
RUN_TIMEOUT_S = 170


def main():
    root = pathlib.Path.cwd()
    classpath = build.build(root)
    out = root / build.BUILD_DIR
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    log_config = root / "perfbench" / "log4j2.properties"
    cmd = [
        "java", "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:+UseTransparentHugePages",
        f"-Djava.io.tmpdir={out / 'tmp'}",
        f"-Dlog4j2.configurationFile={log_config}",
        "--add-opens=java.base/java.lang=ALL-UNNAMED",
        "--add-opens=java.base/java.nio=ALL-UNNAMED",
        "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
        "--add-opens=java.base/java.util=ALL-UNNAMED",
        "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
        "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
        "-cp", classpath, "repro.perfbench.Main", *sys.argv[1:],
    ]
    # A session of its own, so that stopping it also stops the query-phase
    # JVM it starts; SIGTERM unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
