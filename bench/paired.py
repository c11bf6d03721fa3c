#!/usr/bin/env python3
"""Judge a change's speed in alternated base/head pairs of the repository benchmark.

    python3 bench/paired.py BASE HEAD

Checks out both commits as git worktrees in a temporary directory and, for
each of PAIRS pairs, runs every workload of BENCHMARK.json once in each:

    COMMAND --workload W --seed K --seconds RUN_SECONDS

Both sides of a pair run with the same seed; seeds are derived from the head
commit, so a change cannot tune itself to fixed inputs; which side runs first
alternates from pair to pair.  The command, the run length, the workloads
and each end-to-end metric's name, direction ("better") and bound come from
the base commit's BENCHMARK.json, so a change cannot set the terms it is
judged by.

For every workload and metric it prints, and writes to BENCH_pairs.json in
the current directory, the base and head medians and quartiles and the pairs
each side won.  A metric is a regression when all three hold:
  - the head median is worse than the base median by more than the bound;
  - head is worse in at least 9 of 10 pairs (ties count for neither side);
  - the gap between the medians is larger than the base's interquartile range.
A metric is unresolved, a warning and not a failure, when its head median is
worse by more than the bound but the pairs or the base IQR do not bear the
gap out, or when its base IQR/median exceeds the bound, so that the runs
cannot resolve a gap of that size.  A metric reads "ok" only when its head
median is within the bound and its base IQR/median is too.

Exits 1 on a regression, on any run that exits non-zero or reports
"correct": false, and when the head fails more operations than the base.
"""

import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile

# Ten pairs: the fewest at which "head worse in 9 of 10" means something.
PAIRS = 10
WIN_SHARE = 0.9
OUT = "BENCH_pairs.json"
SIDES = ("base", "head")


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def seeds_of(head):
    return [int(hashlib.sha256(f"{head}:{i}".encode()).hexdigest()[:7], 16)
            for i in range(PAIRS)]


def run_once(spec, tree, workload, seed):
    """One benchmark run: (result, None), or (None, why it failed)."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"])],
        cwd=tree, text=True, capture_output=True)
    tail = "\n".join(proc.stderr.splitlines()[-8:])
    if proc.returncode != 0:
        return None, f"exited {proc.returncode}\n{tail}"
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return None, f"printed no result ({e})\n{tail}"
    if result.get("correct") is not True:
        return None, f"reported correct: false\n{tail}"
    return result, None


def run_pairs(spec, trees, workloads, seeds):
    """Every pair's runs, by workload and side; stops at the first failed run."""
    runs = {w: {s: [] for s in SIDES} for w in workloads}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                result, err = run_once(spec, trees[side], w, seed)
                if err:
                    return runs, f"{side} {w} seed {seed}: {err}"
                runs[w][side].append(result)
        print(f"pair {i + 1}/{len(seeds)} (seed {seed}, {order[0]} first)",
              flush=True)
    return runs, None


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def judge(metric, base, head):
    """One metric's verdict from paired values: base[i] and head[i] share a seed."""
    sign = 1 if metric["better"] == "lower" else -1
    bq, hq = quartiles(base), quartiles(head)
    gap = sign * (hq["median"] - bq["median"])  # > 0: head is worse
    rel = gap / abs(bq["median"]) if bq["median"] else math.copysign(math.inf, gap)
    iqr = bq["q3"] - bq["q1"]
    spread = iqr / abs(bq["median"]) if bq["median"] else math.inf
    worse = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    better = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    bound = metric["bound"]
    if rel > bound:
        resolved = worse >= math.ceil(WIN_SHARE * len(base)) and gap > iqr
        status = "regression" if resolved else "unresolved"
    elif spread > bound:
        status = "unresolved"
    else:
        status = "ok"
    return {"base": bq, "head": hq, "head_worse_pairs": worse,
            "head_better_pairs": better, "gap": rel,
            "base_iqr_over_median": spread, "bound": bound, "status": status}


def summary(q):
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/paired.py BASE HEAD")
    root = git("rev-parse", "--show-toplevel")
    base, head = (git("rev-parse", "--verify", f"{c}^{{commit}}", cwd=root)
                  for c in sys.argv[1:])
    spec = json.loads(git("show", f"{base}:BENCHMARK.json", cwd=root))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = seeds_of(head)
    print(f"paired.py: base {base[:12]} vs head {head[:12]}, {PAIRS} pairs of "
          f"{spec['run_seconds']} s runs over {', '.join(workloads)}", flush=True)

    tmp = tempfile.mkdtemp(prefix="paired-")
    trees = {"base": f"{tmp}/base", "head": f"{tmp}/head"}
    try:
        for side, sha in zip(SIDES, (base, head)):
            git("worktree", "add", "--detach", trees[side], sha, cwd=root)
        runs, error = run_pairs(spec, trees, workloads, seeds)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=root, capture_output=True)
        git("worktree", "prune", cwd=root)
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f"run failed: {error}"] if error else []
    warnings = []
    report = {"base": base, "head": head, "pairs": PAIRS,
              "seconds": spec["run_seconds"],
              "seeds": seeds,
              "workloads": {w: {"runs": runs[w], "metrics": {}} for w in workloads}}
    if not error:
        print(f"\n{'workload':<15} {'metric':<15} {'base median [q1, q3]':>30} "
              f"{'head median [q1, q3]':>30} worse     gap  status")
        for w in workloads:
            entry = report["workloads"][w]
            for m in spec["end_to_end"]:
                name = m["name"]
                base_v, head_v = ([r["metrics"][name]["value"] for r in runs[w][s]]
                                  for s in SIDES)
                j = entry["metrics"][name] = judge(m, base_v, head_v)
                print(f"{w:<15} {name:<15} {summary(j['base']):>30} "
                      f"{summary(j['head']):>30} {j['head_worse_pairs']:>2}/{PAIRS} "
                      f"{j['gap']:>+7.1%}  {j['status']}")
                if j["status"] == "regression":
                    failures.append(
                        f"{w} {name}: head worse by {j['gap']:.1%} (bound "
                        f"{m['bound']:.0%}) in {j['head_worse_pairs']}/{PAIRS} pairs")
                elif j["status"] == "unresolved" and j["gap"] > m["bound"]:
                    warnings.append(
                        f"{w} {name}: head median worse by {j['gap']:.1%} (bound "
                        f"{m['bound']:.0%}), but only in {j['head_worse_pairs']}/"
                        f"{PAIRS} pairs or within the base IQR")
                elif j["status"] == "unresolved":
                    warnings.append(
                        f"{w} {name}: base IQR/median {j['base_iqr_over_median']:.1%} "
                        f"exceeds the {m['bound']:.0%} bound")
            failed = entry["failed"] = {s: sum(r["failed"] for r in runs[w][s])
                                        for s in SIDES}
            if failed["head"] > failed["base"]:
                failures.append(f"{w}: head failed {failed['head']} operations, "
                                f"base {failed['base']}")
    report.update(warnings=warnings, failures=failures,
                  verdict="fail" if failures else "pass")
    with open(OUT, "w") as f:
        json.dump(report, f, indent=1)
    for msg in warnings:
        print(f"WARNING unresolved: {msg}")
    for msg in failures:
        print(f"FAIL {msg}")
    print(f"paired.py: {report['verdict']} (wrote {OUT})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
