"""The benchmark's own Spark: pinned master, memory, scratch and shutdown."""
from __future__ import annotations

import os
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cores() -> int:
    return min(4, os.cpu_count() or 1)


def start(run_dir: str, shuffle_partitions: int):
    """A local SparkSession whose scratch lives under ``run_dir``."""
    local = os.path.join(run_dir, "spark-local")
    tmp = os.path.join(run_dir, "jvm-tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    # Read when the JVM and the Python workers start, so set before both.
    # UsePerfData off: the JVM would write its perf file to /tmp.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] --driver-memory 1g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' pyspark-shell"
    )
    os.environ["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    os.environ["SPARK_LOCAL_DIRS"] = local
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("steadybench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.streaming.noDataMicroBatches.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def descendants(pid: int | None = None) -> list[int]:
    """Live descendant processes of ``pid`` (default: this process)."""
    parent: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        parent[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [pid or os.getpid()]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.extend(kids)
        frontier.extend(kids)
    return out


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident sizes (VmHWM) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie no longer does)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop(spark, timeout_s: float = 60.0) -> None:
    """Stop Spark and its JVM, and wait until every process it started is gone.

    The processes are listed before the JVM stops: once it exits, the
    Python daemon and workers it forked are re-parented away from this
    process and no longer show up as its descendants.
    """
    from pyspark import SparkContext

    started = descendants()
    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        proc = gateway.proc
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in started + descendants()) and time.monotonic() < deadline:
        time.sleep(0.1)
