#!/usr/bin/env python3
"""End-to-end benchmark of nsmodel: one command for every workload.

Run one workload (or all of them), print every metric with its unit and
end with one JSON line {"correct", "attempted", "failed", "metrics"}:

  python3 e2ebench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py                      # every workload, untraced
  python3 e2ebench/run.py --trace              # every workload, traced

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (self times of the spans nsmodel_bench writes).

  python3 e2ebench/run.py record --runs 10 --seed 100 --out set.json
  python3 e2ebench/run.py compare A.json B.json
  python3 e2ebench/run.py smoke [--bin PATH]

`record` runs every workload --runs times, seeds seed..seed+runs-1, keeps
every value and prints each metric's median and quartile spread.
`compare` gives a verdict per (metric, workload) pair and refuses records
taken on different machine shapes.  `smoke` runs everything at toy scale
and checks that every metric BENCHMARK.json declares is reported.

The first call configures and builds nsmodel_bench (CMakeLists.txt next
to this file) under .bench_build/ at the repository root.  An untraced
sweep run is SWEEP_PROCESSES nsmodel_bench processes whose passes are
pooled; an untraced huge_broadcast run and every traced run is one
process.  Each process gets NSMODEL_THREADS, and so the shard count, set
to min(nproc, 4); every other NSMODEL_* policy is cleared to its default.
Times are scaled by a host probe (README.md, Host drift).  Exit status:
0 when every check passed, 1 on a failed check, 2 on a usage or build
error.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
SWEEP_PROCESSES = 3  # nsmodel_bench processes per untraced sweep run
RUN_DEADLINE_S = 170  # every process of one run ends within this


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def threads():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NSMODEL_")}
    env["NSMODEL_THREADS"] = str(threads())
    return env


def ensure_binary():
    """Configures and builds nsmodel_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"nsmodel sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "nsmodel_bench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}")
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / "nsmodel_bench"


def run_binary(binary, args, deadline):
    """Runs nsmodel_bench; returns (exit code, its JSON record)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting nsmodel_bench")
    try:
        done = subprocess.run([str(binary)] + args, env=bench_env(),
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"nsmodel_bench {' '.join(args)} timed out")
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"nsmodel_bench {' '.join(args)} exited "
                         f"{done.returncode} without a record")
    try:
        return done.returncode, json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"nsmodel_bench printed malformed JSON: {lines[-1]}")


# ----------------------------------------------------------------- traces

def read_spans(path):
    spans = [json.loads(line) for line in Path(path).read_text().splitlines()]
    covered = defaultdict(float)
    for s in spans:
        if s["parent"]:
            covered[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        s["wall"] = s["end"] - s["start"]
        s["self"] = s["wall"] - covered[s["id"]]
    return spans


def probe_time(spans, name):
    """Median call of `name` per request, summed over requests."""
    calls = defaultdict(list)
    for s in spans:
        if s["name"] == name:
            calls[s["request"]].append(s["self"])
    if not calls:
        raise BenchError(f"trace has no {name} span")
    return sum(statistics.median(v) for v in calls.values())


def total_time(spans, name):
    return sum(s["self"] for s in spans if s["name"] == name)


def coverage(spans):
    """Smallest share of a replay/iteration root covered by child spans."""
    roots = [s for s in spans if s["name"] in ("replay", "iteration")]
    return min(1.0 - s["self"] / s["wall"] for s in roots)


def self_time_table(spans):
    by_name = defaultdict(lambda: [0, 0.0])
    for s in spans:
        by_name[s["name"]][0] += 1
        by_name[s["name"]][1] += s["self"]
    lines = ["  self time by span (s, calls):"]
    for name, (calls, total) in sorted(by_name.items(),
                                       key=lambda kv: -kv[1][1]):
        lines.append(f"    {name:28s} {total:10.4f} {calls:7d}")
    return lines


def per_layer(record):
    spans = read_spans(record["trace"])
    c = record["construction"]
    runs = record["run_counts"]
    scenario = total_time(spans, "sim.scenario")
    batch = total_time(spans, "sim.batch")
    flat = total_time(spans, "sim.flat")
    run_n = probe_time(spans, "sim.sharded.run")
    run_1 = probe_time(spans, "sim.sharded.run.shards1")
    metrics = {
        "net.deployment.s": probe_time(spans, "net.deployment"),
        "geom.grid.s": probe_time(spans, "geom.grid"),
        "net.topology.s": probe_time(spans, "net.topology"),
        "net.topology.edges": c["edges"],
        "net.topology.cs_edges": c["cs_edges"],
        "net.gain_field.s": probe_time(spans, "net.gain_field"),
        "net.gain_field.edges": c["gain_edges"],
        "sim.scenario.s": scenario,
        "sim.scenario.share": scenario / (scenario + batch),
        "sim.batch.s": batch,
        "sim.batch.calls": sum(s["name"] == "sim.batch" for s in spans),
        "sim.flat.s": flat,
        "sim.batch.speedup_vs_flat": flat / batch,
        "sim.run.slots": runs["slots"],
        "sim.run.transmissions": runs["transmissions"],
        "sim.run.deliveries": runs["deliveries"],
        "sim.run.lost_receivers": runs["lost_receivers"],
        "sim.run.delivery_ratio":
            runs["delivered_pairs"] / runs["attempted_pairs"],
        "geom.partition.s": probe_time(spans, "geom.partition"),
        "sim.sharded.setup.s": probe_time(spans, "sim.sharded.setup"),
        "sim.sharded.setup.s.shards1":
            probe_time(spans, "sim.sharded.setup.shards1"),
        "sim.sharded.run.s": run_n,
        "sim.sharded.run.s.shards1": run_1,
        "sim.sharded.speedup": run_1 / run_n,
        "sim.sharded.us_per_slot": run_n / record["sharded_slots"] * 1e6,
        "support.cpu_util": record["cpu_util"],
        "support.threads": record["threads"],
        "trace.overhead_frac":
            record["replay_on_s"] / record["replay_off_s"] - 1.0,
        "trace.coverage_frac": coverage(spans),
    }
    return metrics, self_time_table(spans)


# ----------------------------------------------------------------- measure

def median(values):
    return statistics.median(values)


def process_failures(code, record):
    failed = record["failed"]
    return record["attempted"] if code != 0 and failed == 0 else failed


def end_to_end(binary, workload, seed, seconds, smoke, deadline):
    """One untraced run: SWEEP_PROCESSES processes of a sweep, their passes
    pooled, or one huge_broadcast process (README.md, Host drift).  Every
    time is scaled to the baseline host's speed by the host probe that ran
    right after its pass or iteration; `raw` keeps the unscaled medians."""
    processes = 1 if workload == "huge_broadcast" else SWEEP_PROCESSES
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds / processes}"] + (["--smoke"] if smoke else [])
    records, failed, notes = [], 0, []
    reference = json.loads((HERE / "reference_digests.json").read_text())
    expected = reference["smoke" if smoke else "full"].get(workload, {})
    for i in range(processes):
        # The first process also runs the reference-path checks; the
        # others must reproduce its digests.
        code, record = run_binary(binary,
                                  args + (["--verify"] if i == 0 else []),
                                  deadline)
        records.append(record)
        failed += process_failures(code, record)
        if record["digests"] != records[0]["digests"]:
            notes.append(f"process {i} digests {record['digests']} != "
                         f"process 0 digests {records[0]['digests']}")
            failed += record["attempted"]
        if seed != reference["seed"]:
            continue
        for key, digest in expected.items():
            if record["digests"].get(key) != digest:
                notes.append(f"pass {key} digest {record['digests'].get(key)}"
                             f" != reference {digest}")
                failed += record["attempted"]
    if len({json.dumps(r["shape"], sort_keys=True) for r in records}) != 1:
        raise BenchError("machine shape changed between processes")

    def scaled(key):
        return [v * r["probe_nominal_s"] / p for r in records
                for v, p in zip(r[key], r["probe_s"])]

    def unscaled(key):
        return [v for r in records for v in r[key]]

    if workload == "huge_broadcast":
        keys = {"time_to_result_s": "time_to_result_s", "run_s": "run_s",
                "setup_s": "setup_s"}
        runs_per_op = 1
    else:
        keys = {"time_to_result_s": "cold_pass_s", "run_s": "warm_pass_s"}
        runs_per_op = records[0]["runs_per_pass"]
    metrics, raw = {}, {}
    for values, times in ((metrics, scaled), (raw, unscaled)):
        for name, key in keys.items():
            values[name] = median(times(key))
        values["runs_per_s"] = median(
            [runs_per_op / t for t in times(keys["time_to_result_s"])])
    if workload == "huge_broadcast":
        metrics["peak_rss_mb"] = records[0]["peak_rss_mb"]
    else:  # one set-up per process, scaled by that process's median probe
        metrics["setup_s"] = median(
            [r["setup_s"] * r["probe_nominal_s"] / median(r["probe_s"])
             for r in records])
        raw["setup_s"] = median([r["setup_s"] for r in records])
        metrics["peak_rss_mb"] = median([r["setup_rss_mb"] for r in records])
    raw["probe_s"] = median(unscaled("probe_s"))
    combined = {"attempted": sum(r["attempted"] for r in records),
                "shape": records[0]["shape"], "raw": raw}
    return combined, metrics, min(failed, combined["attempted"]), notes


def traced(binary, workload, seed, smoke, deadline):
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    trace = BUILD_DIR / f"trace-{workload}-{seed}.jsonl"
    args = [f"--workload={workload}", f"--seed={seed}", f"--trace={trace}"]
    code, record = run_binary(binary, args + (["--smoke"] if smoke else []),
                              deadline)
    metrics, table = per_layer(record)
    return record, metrics, process_failures(code, record), table


def measure(binary, workload, seed, seconds, trace, smoke=False):
    """One benchmark run of one workload; returns the result object."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        record, values, failed, notes = traced(binary, workload, seed, smoke,
                                               deadline)
        declared = spec["per_layer"]
    else:
        record, values, failed, notes = end_to_end(binary, workload, seed,
                                                   seconds, smoke, deadline)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"{workload}: metric {m['name']} declared in "
                             f"BENCHMARK.json was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "shape": record["shape"],
        "raw": record.get("raw", {}),
        "notes": notes,
    }


def report(result):
    shape = result["shape"]
    print(f"{result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} "
          + " ".join(f"{k}={v}" for k, v in shape.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if result["raw"]:
        print("  unscaled: " + " ".join(f"{k}={v:.6g}"
                                        for k, v in result["raw"].items()))
    for line in result["notes"]:
        print(f"  {line}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


def result_line(result):
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------- commands

def parse_flags(argv, flags):
    """--name value / --name=value pairs; `flags` maps name -> default.
    A flag whose default is False may stand alone, meaning 1."""
    values = dict(flags)
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if not arg.startswith("--"):
            raise BenchError(f"unexpected argument {arg}")
        name, eq, value = arg[2:].partition("=")
        if name not in flags:
            raise BenchError(f"unknown option --{name}")
        if not eq:
            if i < len(argv) and not argv[i].startswith("--"):
                value = argv[i]
                i += 1
            elif flags[name] is False:
                value = "1"
            else:
                raise BenchError(f"--{name} needs a value")
        values[name] = value
    return values


def to_int(text, name, low=0):
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise BenchError(f"--{name} needs an integer")
    if value < low:
        raise BenchError(f"--{name} must be >= {low}")
    return value


def cmd_run(argv):
    flags = parse_flags(argv, {"workload": "all", "seed": "42",
                               "seconds": None, "trace": False})
    spec = load_spec()
    seconds = to_int(flags["seconds"] or spec["run_seconds"], "seconds")
    trace = flags["trace"] not in (False, "0")
    if flags["trace"] not in (False, "0", "1"):
        raise BenchError("--trace takes 0 or 1")
    known = [w["name"] for w in spec["workloads"]]
    names = known if flags["workload"] == "all" else [flags["workload"]]
    if not set(names) <= set(known):
        raise BenchError(f"unknown workload {flags['workload']}")
    seed = to_int(flags["seed"], "seed")
    binary = ensure_binary()
    ok = True
    for name in names:
        result = measure(binary, name, seed, seconds, trace)
        report(result)
        print(result_line(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_table(runs, spec):
    """Median and (q3 - q1) / median of every end-to-end metric."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    grouped = defaultdict(list)
    for r in runs:
        if not r["trace"]:
            for name, m in r["metrics"].items():
                grouped[(r["workload"], name)].append(m["value"])
    lines = []
    for (workload, name), values in grouped.items():
        q1, q2, q3 = quartiles(values)
        rel = (q3 - q1) / q2
        mark = "" if name == "setup_s" or rel < bounds[name] / 3 else "  WIDE"
        lines.append(f"  {workload:16s} {name:18s} median {q2:12.6g}  "
                     f"spread {rel:7.4f}  bound {bounds[name]}{mark}")
    return lines


def cmd_record(argv):
    flags = parse_flags(argv, {"runs": "10", "seed": "100", "out": None,
                               "workload": "all", "seconds": None})
    if not flags["out"]:
        raise BenchError("record needs --out FILE")
    spec = load_spec()
    seconds = to_int(flags["seconds"] or spec["run_seconds"], "seconds")
    runs = to_int(flags["runs"], "runs", 1)
    first = to_int(flags["seed"], "seed")
    names = ([w["name"] for w in spec["workloads"]]
             if flags["workload"] == "all" else [flags["workload"]])
    binary = ensure_binary()
    results = []
    for i in range(runs):
        for name in names:
            results.append(measure(binary, name, first + i, seconds, False))
            log(f"{name} seed {first + i}: "
                + result_line(results[-1]))
    for name in names:  # one traced run per workload
        results.append(measure(binary, name, first, seconds, True))
    shapes = {json.dumps(r["shape"], sort_keys=True) for r in results}
    if len(shapes) != 1:
        raise BenchError("machine shape changed during the recording")
    record = {"shape": results[0]["shape"], "seconds": seconds,
              "runs": [{k: r[k] for k in ("workload", "seed", "trace",
                                          "correct", "attempted", "failed",
                                          "metrics", "raw")}
                       for r in results]}
    Path(flags["out"]).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(spread_table(results, spec)))
    ok = all(r["correct"] for r in results)
    print(f"wrote {flags['out']}: {len(results)} runs, "
          f"{'all correct' if ok else 'FAILURES'}")
    return 0 if ok else 1


def verdict(a, b, better, bound):
    """better, worse, unchanged or unresolved of B's runs against A's, in
    this order (README.md, Commands): worse when B's median is worse by
    more than the bound; better when B wins 9 of 10 seed-ordered pairs and
    the medians differ by more than A's quartile spread; unresolved when
    either set's spread exceeds the bound, unless every B run beats every
    A run; unchanged otherwise.  Metrics without a bound (the per-layer
    ones) get no verdict."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "higher" else -1.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    change = sign * (mb - ma) / ma  # > 0: B is better
    if change < -bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if change > 0 and abs(mb - ma) > qa3 - qa1 and wins >= 0.9 * len(pairs):
        return "better"
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    if spread > bound:
        every_better = all(sign * (y - x) > 0 for x in a for y in b)
        return "better" if every_better else "unresolved"
    return "unchanged"


def cmd_compare(argv):
    if len(argv) != 2:
        raise BenchError("compare needs two record files")
    try:
        a, b = (json.loads(Path(p).read_text()) for p in argv)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read records: {e}")
    if a["shape"] != b["shape"]:
        for key in sorted(set(a["shape"]) | set(b["shape"])):
            if a["shape"].get(key) != b["shape"].get(key):
                log(f"shape differs: {key}: {a['shape'].get(key)} vs "
                    f"{b['shape'].get(key)}")
        raise BenchError("records come from different machine shapes")
    spec = load_spec()
    declared = ([(m, False) for m in spec["end_to_end"]]
                + [(m, True) for m in spec["per_layer"]])
    worse = False
    print(f"{'workload':16s} {'metric':28s} {'A median':>10s} "
          f"{'A q1':>10s} {'A q3':>10s} {'B median':>10s} {'B q1':>10s} "
          f"{'B q3':>10s} {'change':>8s} {'bound':>5s} verdict")
    def row(workload, name, va, vb, bound, v):
        qa1, ma, qa3 = quartiles(va)
        qb1, mb, qb3 = quartiles(vb)
        change = (mb - ma) / ma if ma else 0.0
        print(f"{workload:16s} {name:28s} {ma:10.4g} {qa1:10.4g} "
              f"{qa3:10.4g} {mb:10.4g} {qb1:10.4g} {qb3:10.4g} "
              f"{change:+8.2%} {'-' if bound is None else bound:>5} {v}")

    for w in spec["workloads"]:
        def runs(rec, traced_metric):
            return [r for r in rec["runs"] if r["workload"] == w["name"]
                    and r["trace"] == traced_metric]
        for m, traced_metric in declared:
            va, vb = ([r["metrics"][m["name"]]["value"]
                       for r in runs(rec, traced_metric)] for rec in (a, b))
            if not va or not vb:
                continue
            bound = m.get("bound")
            v = verdict(va, vb, m["better"], bound)
            worse = worse or v == "worse"
            row(w["name"], m["name"], va, vb, bound, v)
        # How fast the host ran during each record (README.md, Host drift).
        pa, pb = ([r["raw"]["probe_s"] for r in runs(rec, False)]
                  for rec in (a, b))
        if pa and pb:
            row(w["name"], "host probe, unscaled s", pa, pb, None, "-")
    return 1 if worse else 0


def cmd_smoke(argv):
    flags = parse_flags(argv, {"bin": None})
    started = time.monotonic()
    binary = Path(flags["bin"]) if flags["bin"] else ensure_binary()
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result = measure(binary, w["name"], 42, 0, trace, smoke=True)
            json.loads(result_line(result))
            report(result)
            ok = ok and result["correct"]
    elapsed = time.monotonic() - started
    print(f"smoke {'ok' if ok else 'FAILED'} in {elapsed:.1f} s")
    return 0 if ok else 1


def main(argv):
    commands = {"record": cmd_record, "compare": cmd_compare,
                "smoke": cmd_smoke}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return cmd_run(argv)
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
