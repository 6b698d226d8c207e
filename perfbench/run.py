#!/usr/bin/env python3
"""Benchmark of the ebrc reproduction: one command, end-to-end and per-layer.

    python3 perfbench/run.py --workload catalogue-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py selftest
    python3 perfbench/run.py compare A.jsonl B.jsonl

A run builds the `ebrc-perfbench` binary from this checkout (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload, checks its
outputs, records the host, and prints one JSON object as the last line of
stdout: `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.

Output checks: seed 0 is the canonical catalogue, whose tables must match
`repro all --scale quick` byte for byte; at every seed, every run must match
that seed's first run in this checkout (digests kept in `.perfbench_state/`).

Every result is appended, with its host record, to
`.perfbench_state/results.jsonl`; `compare` reads such files and refuses to
compare results from different hosts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
STATE = ROOT / ".perfbench_state"
WORKLOADS = ("catalogue-cold", "catalogue-warm")
# Host fields that must agree before two results may be compared.
HOST_KEYS = ("nproc", "threads", "cpu_model", "rustc", "profile")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(
        ["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr, check=False
    )
    if done.returncode != 0:
        log(f"cargo {' '.join(args)} failed with exit code {done.returncode}")
        sys.exit(1)


def build_bench():
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")])
    return target_dir() / "release" / "ebrc-perfbench"


def repro_reference():
    """`repro all --scale quick` stdout of this checkout, built and run once
    per repro binary."""
    cargo(["build", "--release", "--offline", "--quiet",
           "-p", "ebrc-experiments", "--bin", "repro"])
    repro = target_dir() / "release" / "repro"
    st = repro.stat()
    stamp = f"{st.st_size}-{st.st_mtime_ns}"
    out = STATE / "repro-quick.stdout"
    stamp_file = STATE / "repro-quick.stamp"
    if not (out.exists() and stamp_file.exists() and stamp_file.read_text() == stamp):
        log("running repro all --scale quick for the canonical-seed reference")
        STATE.mkdir(exist_ok=True)
        done = subprocess.run(
            [str(repro), "all", "--scale", "quick", "--threads", "2"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=RUN_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            log(f"repro exited with {done.returncode}")
            sys.exit(1)
        out.write_bytes(done.stdout)
        stamp_file.write_text(stamp)
    return out


def run_binary(cmd):
    """Runs `cmd` to completion, returning (exit code, stdout)."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{Path(cmd[0]).name} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    return done.returncode, done.stdout


def sources_digest():
    import hashlib
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host_record(tree):
    def text(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit = text(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": nproc,
        "threads": min(nproc, 2),
        "cpu_model": cpu,
        "rustc": text(["rustc", "--version"]),
        "commit": commit or "none",
        "tree": tree,
        "profile": "release",
    }


def check_digests(tree, seed, digests):
    """Compares this run's per-experiment digests with the seed's first
    correct run of the same sources; returns the number of specs behind
    mismatched outputs, and where to record the digests when this run is
    the first."""
    path = STATE / "digests" / tree / f"catalogue-{seed}.json"
    if not path.exists():
        return 0, path
    first = json.loads(path.read_text())
    failed = 0
    for exp, (digest, specs) in digests.items():
        if first.get(exp, [None])[0] != digest:
            log(f"output of {exp} differs from the first run at seed {seed}")
            failed += specs
    return failed, None


def run(args):
    binary = build_bench()
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if args.seed == 0:
        cmd += ["--reference", str(repro_reference())]
    if args.workload == "catalogue-warm" and args.trace == 0:
        # Filled by its own process, so the measuring one never runs a sim.
        code, out = run_binary([str(binary), "--populate", "--seed", str(args.seed),
                                "--work", str(work)])
        sys.stderr.write(out)
        if code != 0:
            log(f"populating the warm cache failed ({code})")
            sys.exit(1)
    code, out = run_binary(cmd)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines[-1].startswith("{"):
        log(f"benchmark binary exited with {code}")
        sys.exit(1)
    result = json.loads(lines[-1])
    digests = result.pop("digests")
    tree = sources_digest()
    mismatched, first_path = check_digests(tree, args.seed, digests)
    result["failed"] += mismatched
    result["correct"] = result["correct"] and mismatched == 0
    if first_path is not None and result["correct"]:
        first_path.parent.mkdir(parents=True, exist_ok=True)
        first_path.write_text(json.dumps(digests, sort_keys=True))
    host = host_record(tree)
    with open(STATE / "results.jsonl", "a") as f:
        f.write(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "seconds": args.seconds, **result}) + "\n")
    print("\n".join(lines[:-1]))
    print(f"failed_frac = {result['failed'] / max(result['attempted'], 1)} frac")
    print(f"# host: {json.dumps(host, sort_keys=True)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def load_results(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]


def compare(paths):
    """Median per workload and end-to-end metric, A vs B, with the verdict
    against each metric's bound; refuses results from different hosts and
    leaves out results whose outputs failed their check."""
    a, b = load_results(paths[0]), load_results(paths[1])
    for name, results in (("A", a), ("B", b)):
        bad = sum(1 for r in results if not r["correct"])
        if bad:
            print(f"{name}: skipping {bad} result(s) whose outputs failed their check")
    a = [r for r in a if r["correct"]]
    b = [r for r in b if r["correct"]]
    hosts = {json.dumps({k: r["host"][k] for k in HOST_KEYS}, sort_keys=True) for r in a + b}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts:")
        for h in sorted(hosts):
            print(f"  {h}")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':16} {'metric':14} {'A median':>14} {'B median':>14} {'B/A-1':>9}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a
                  if r["workload"] == w["name"] and r["trace"] == 0]
            vb = [r["metrics"][m["name"]]["value"] for r in b
                  if r["workload"] == w["name"] and r["trace"] == 0]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = mb / ma - 1
            worse = delta if m["better"] == "lower" else -delta
            verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
            print(f"{w['name']:16} {m['name']:14} {ma:14.6g} {mb:14.6g} {delta:+9.3%}  {verdict}")
    return 0


def selftest():
    """Unit tests of the benchmark crate, then short runs of every workload:
    metric names and units against BENCHMARK.json, digests stable at one seed
    and different across seeds, the canonical seed against repro."""
    cargo(["test", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    mapped = {m["metric"] for m in layer_map["per_layer"]}
    declared = {m["name"] for m in spec["per_layer"]}
    problems = []
    if mapped != declared:
        problems.append(f"layer_map.json and BENCHMARK.json disagree: {sorted(mapped ^ declared)}")
    listed = {w["name"] for w in spec["workloads"]}
    if not listed <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json names unknown workloads: {sorted(listed - set(WORKLOADS))}")
    mapped_workloads = {w for m in layer_map["per_layer"] for w in m["workloads"]}
    if not mapped_workloads <= listed:
        problems.append(f"layer_map.json names unlisted workloads: {sorted(mapped_workloads - listed)}")

    def once(workload, seed, trace):
        done = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            problems.append(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
            return None
        return json.loads(done.stdout.strip().split("\n")[-1])

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = once(workload, 1, trace)
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append(f"{workload} trace {trace}: metrics/units differ: "
                                f"{sorted(set(want.items()) ^ set(got.items()))}")
            if not result["correct"]:
                problems.append(f"{workload} seed 1 trace {trace}: outputs incorrect")
    # Seed 1 ran above, so this run is checked against that first run.
    again = once("catalogue-cold", 1, 0)
    if again is None or not again["correct"]:
        problems.append("a second run at seed 1 does not repeat the first")
    once("catalogue-cold", 2, 0)
    recorded = STATE / "digests" / sources_digest()
    one, two = (recorded / f"catalogue-{s}.json" for s in (1, 2))
    if not (one.exists() and two.exists()) or one.read_text() == two.read_text():
        problems.append("seeds 1 and 2 do not give different recorded outputs")
    canonical = once("catalogue-cold", 0, 0)
    if canonical is None or not canonical["correct"]:
        problems.append("seed 0 does not match repro all --scale quick")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        sys.exit(selftest())
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.jsonl B.jsonl")
        sys.exit(compare(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    run(args)


if __name__ == "__main__":
    main()
