#!/usr/bin/env python3
"""Calibration: repeated runs of unchanged code, written to CALIBRATION.md.

    benchmark/run.sh --calibrate [sets] [runs]      (default 2 sets x 10 runs)
    benchmark/run.sh --calibrate render             (re-render the saved runs)

Each set runs every workload `runs` times, workloads interleaved, every run
with another --seed. Per user-visible metric and workload the report gives each
set's median and quartiles, the spread (Q3 - Q1) / median as Python's
statistics.quantiles(values, n=4) gives it -- the figure the driver compares
with the bound -- and the largest difference between two sets' medians. The
metrics are the end-to-end ones of BENCHMARK.json and the ones demoted to its
per-layer list (names without a layer prefix), which have no bound. A final
pass repeats one seed twice on a fixed trial count and checks that the
count-type metrics of the one-thread workloads repeat exactly.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

EXACT = ["hit_ratio", "view_bytes"]
EXACT_LAYER = [
    "core.store_entries", "core.store_tuples", "cache.evictions_per_kq",
    "cache.admissions_per_kq", "cache.probations_per_kq", "core.upqueries_per_kq",
    "core.parts_per_query", "core.partial_tuples_per_query",
    "query.index_probes_per_query", "query.tuples_examined_per_result",
    "core.maint_tuples_removed_per_commit", "core.maint_index_removals_per_commit",
    "core.maint_join_rows_per_commit", "wal.bytes_per_commit", "wal.fsyncs_per_commit",
]


def table_values(lines, names):
    """Values of `names` from the tables a run prints (`name value unit ...`)."""
    rows = (l.split() for l in lines)
    return {f[0]: float(f[1]) for f in rows if len(f) >= 3 and f[0] in names}


def run(binary, out_dir, workload, seed, seconds, trace, extra=(), demoted=()):
    cmd = [binary, "--out", out_dir, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    noise = next((l for l in lines if l.startswith("noise:")), "")
    values = {n: m["value"] for n, m in result["metrics"].items()} if result else {}
    # Demoted metrics are not in the result line of an untraced run.
    values.update(table_values(lines, demoted))
    if proc.returncode != 0:
        print(proc.stderr[-500:], file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": wall, "result": result, "values": values, "noise": noise}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / abs(statistics.median(values))


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse (negative: it is better)."""
    if first == 0:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def measure(binary, out_dir, workloads, seconds, sets, runs, demoted):
    log = []
    for s in range(sets):
        for r in range(runs):
            for w in workloads:
                seed = 1 + s * runs + r
                rec = run(binary, out_dir, w, seed, seconds, 0, demoted=demoted)
                rec["set"] = s + 1
                log.append(rec)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: exit {rec['exit']} "
                      f"{rec['wall_s']:.1f}s", file=sys.stderr)

    # One-thread workloads, one seed twice, fixed trial count: counts repeat.
    determinism = []
    for w in workloads:
        if w == "mixed_2t":
            continue
        for trace, names in ((0, EXACT), (1, EXACT_LAYER)):
            pair = [run(binary, out_dir, w, 4242, seconds, trace, ("--trials", "8"))
                    for _ in range(2)]
            log.extend(dict(p, set="det") for p in pair)
            for n in names:
                vals = [p["result"]["metrics"][n]["value"] if p["result"] else None
                        for p in pair]
                determinism.append((w, n, vals[0], vals[1], vals[0] == vals[1]))
    return {"sets": sets, "runs": runs, "date": time.strftime('%Y-%m-%d %H:%M:%S %Z'),
            "log": log, "determinism": determinism}


def main():
    binary, here = sys.argv[1], sys.argv[2]
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    # Demoted: user-visible, but unbounded and listed per layer.
    metrics = bench["end_to_end"] + [dict(m, bound=None) for m in bench["per_layer"]
                                     if "." not in m["name"]]
    demoted = [m["name"] for m in metrics if m["bound"] is None]
    seconds = bench["run_seconds"]
    out_dir = os.path.join(here, "out")
    os.makedirs(out_dir, exist_ok=True)
    saved = os.path.join(out_dir, "calibration_runs.json")
    if sys.argv[3:4] == ["render"]:
        # Bounds changed: judge the saved runs again without re-running.
        with open(saved) as f:
            data = json.load(f)
    else:
        sets = int(sys.argv[3]) if len(sys.argv) > 3 else 2
        runs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
        data = measure(binary, out_dir, workloads, seconds, sets, runs, demoted)
        with open(saved, "w") as f:
            json.dump(data, f)
    sets, runs, log, determinism = data["sets"], data["runs"], data["log"], data["determinism"]

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as f:
                return next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
        except (OSError, StopIteration):
            return "unknown"

    md = ["# Calibration", "",
          "Written by `benchmark/run.sh --calibrate`; every run made is listed at the end.", "",
          f"- date: {data['date']}",
          f"- host: {platform.platform()}, {cpu_model()}, nproc {os.cpu_count()}",
          f"- protocol: {sets} sets x {runs} runs per workload, workloads interleaved, "
          f"`--seconds {seconds}`, run r of set s uses `--seed {{1 + (s-1)*{runs} + (r-1)}}`",
          "- spread = (Q3 - Q1) / median over one set's runs "
          "(`statistics.quantiles(values, n=4)`); the driver requires spread <= bound, "
          "of every metric but `setup_s`",
          "- set-to-set = how much worse the later set's median is than the earlier one's, "
          "largest over all pairs of sets; the driver requires it <= bound",
          "- a metric without a bound was demoted to the per-layer list: on some workload "
          "its spread is above 0.10, the largest bound this benchmark gives a metric "
          "other than `setup_s`", ""]
    failed_runs = [r for r in log if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]]
    md += [f"Runs: {len(log)}, failed or incorrect: {len(failed_runs)}.", ""]

    verdicts = []
    for w in workloads:
        md += [f"## {w}", "",
               "| metric | unit | " + " | ".join(
                   f"set {s + 1} median | set {s + 1} Q1..Q3 | set {s + 1} spread" for s in range(sets))
               + " | set-to-set | bound | spread <= bound | set-to-set <= bound |",
               "|---|---|" + "---|" * (3 * sets + 4)]
        for m in metrics:
            name = m["name"]
            per_set = []
            for s in range(sets):
                vals = [r["values"][name] for r in log
                        if r.get("set") == s + 1 and r["workload"] == w and r["result"]]
                per_set.append(vals)
            cells, worst_spread = [], 0.0
            for vals in per_set:
                if len(vals) < 2:
                    cells += ["-", "-", "-"]
                    continue
                q1, q3, sp = spread(vals)
                worst_spread = max(worst_spread, sp)
                cells += [f"{statistics.median(vals):.6g}", f"{q1:.6g}..{q3:.6g}", f"{sp * 100:.2f}%"]
            meds = [statistics.median(v) for v in per_set if v]
            pair = max((worse_by(meds[i], meds[j], m["better"])
                        for i in range(len(meds)) for j in range(i + 1, len(meds))), default=0.0)
            bound = m["bound"]
            within = ["-", "-"] if bound is None else [
                "yes" if x <= bound else "NO" for x in (worst_spread, pair)]
            verdicts.append((w, name, worst_spread, pair, bound, "NO" not in within))
            md.append(f"| {name} | {m['unit']} | " + " | ".join(cells)
                      + f" | {pair * 100:+.2f}% | {bound or '-'} | " + " | ".join(within) + " |")
        md.append("")

    md += ["## Bounds", "",
           "Worst spread and worst set-to-set difference of each metric over all workloads, "
           "next to the bound `BENCHMARK.json` gives it.", "",
           "| metric | worst spread | worst set-to-set | bound | spread / bound |", "|---|---|---|---|---|"]
    for m in metrics:
        rows = [v for v in verdicts if v[1] == m["name"]]
        ws, wp = max(v[2] for v in rows), max(v[3] for v in rows)
        md.append(f"| {m['name']} | {ws * 100:.2f}% | {wp * 100:+.2f}% | "
                  + (f"{m['bound']} | {ws / m['bound']:.2f} |" if m["bound"] else "demoted | - |"))
    md.append("")

    md += ["## Determinism (one seed twice, `--trials 8`, one-thread workloads)", "",
           "| workload | metric | first | second | equal |", "|---|---|---|---|---|"]
    md += [f"| {w} | {n} | {a} | {b} | {'yes' if eq else 'NO'} |" for w, n, a, b, eq in determinism]
    md.append("")

    md += ["## Every run", "",
           "| set | workload | seed | trace | exit | wall s | correct | failed/attempted | "
           + " | ".join(m["name"] for m in metrics) + " | noise gauges |",
           "|---|---|---|---|---|---|---|---|" + "---|" * (len(metrics) + 1)]
    for r in log:
        res = r["result"]
        vals = [f"{r['values'][m['name']]:.6g}" if m["name"] in r["values"] else "-"
                for m in metrics]
        md.append(f"| {r['set']} | {r['workload']} | {r['seed']} | {r['trace']} | {r['exit']} | "
                  f"{r['wall_s']:.1f} | {res['correct'] if res else '-'} | "
                  f"{res['failed'] if res else '-'}/{res['attempted'] if res else '-'} | "
                  + " | ".join(vals) + f" | {r['noise'].removeprefix('noise: ')} |")
    md.append("")
    with open(os.path.join(here, "CALIBRATION.md"), "w") as f:
        f.write("\n".join(md))
    bad = [v for v in verdicts if not v[5]] + [d for d in determinism if not d[4]]
    print(f"wrote CALIBRATION.md: {len(log)} runs, {len(failed_runs)} failed, "
          f"{len(bad)} checks outside their bound", file=sys.stderr)
    return 1 if failed_runs or bad else 0


if __name__ == "__main__":
    sys.exit(main())
