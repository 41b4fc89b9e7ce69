#!/usr/bin/env python3
"""Build the benchmark from source and make one run of one workload.

    python3 perfbench/run.py --workload <sim-fig02|serve-read>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is
reused by later runs. The arguments go to the benchmark binary as
they are; it checks them. The run's own lines go to standard output,
then a host fingerprint line, then the JSON result as the last line.
See perfbench/README.md.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full "
             "checkout")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--target", "perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench"), out


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest ...]; the
    # guest times are already inside user and nice.
    return fields[7], sum(fields[:8])


def steal_pct(before, after):
    """Share of CPU time a hypervisor took from this machine, in %."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]),
                 2)


def host_fingerprint(build_dir, load_at_start, steal):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            cache = f.read()
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if m:
            version = subprocess.run([m.group(1), "--version"],
                                     capture_output=True, text=True)
            compiler = version.stdout.split("\n", 1)[0].strip()
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        if m:
            build_type = m.group(1)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": build_type,
            "loadavg_1m_at_start": load_at_start,
            "steal_pct_during_run": steal}


def check_manifest(metrics):
    """Every workload reports exactly the end-to-end metrics of
    BENCHMARK.json (timed run) or exactly its per-layer ones (traced
    run), each in its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    got = {name: m.get("unit") for name, m in metrics.items()}
    for kind in ("end_to_end", "per_layer"):
        if got == {m["name"]: m["unit"] for m in manifest[kind]}:
            return
    fail("the result's metrics match neither the end_to_end nor the "
         "per_layer list of BENCHMARK.json: " + ", ".join(sorted(got)))


def main():
    load_at_start = os.getloadavg()[0]
    binary, build_dir = build()
    cmd = [binary] + sys.argv[1:]
    times_before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    steal = steal_pct(times_before, cpu_times())
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    if not isinstance(result, dict) or "metrics" not in result:
        fail("perfbench printed no result line")
    check_manifest(result["metrics"])
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host_fingerprint(build_dir, load_at_start,
                                                 steal)))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
