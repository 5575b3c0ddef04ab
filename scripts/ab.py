#!/usr/bin/env python3
"""Same-host A/B of the perfbench benchmark between two git revisions.

    python3 scripts/ab.py <base-rev> [<rev>]     # <rev> defaults to HEAD
    python3 scripts/ab.py HEAD HEAD              # A/A: the noise floor

A timing from another run, let alone another host, cannot judge a change.
Each revision is built in a git worktree under .bench_build/ab/; then for
every workload in the base's BENCHMARK.json, PAIRS pairs run back to back
at its run_seconds, one fresh seed per pair, first side alternating. Prints
Markdown tables (verdict per end-to-end metric against its bound, failed
operations, each side's size) and exits 1 on a regression, a higher failed
share or an incorrect run. DESIGN.md section 12 has the rules.
"""
import glob
import json
import os
import random
import secrets
import shutil
import statistics
import subprocess
import sys

PAIRS = 10
BOOTSTRAP = 2000
GAIN_SHARE = 0.9  # share of pairs the change must win to count as a gain
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def judge_metric(base, change, better, bound):
    """Compare one metric's paired runs: base[i] and change[i] share pair i.
    Returns each side's quartiles, the pairs the change wins, the ratio of
    medians with its bootstrap CI, and the verdict."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two equally long sides of at least 2 runs, "
                         "got %d and %d" % (len(base), len(change)))
    bq, cq = (statistics.quantiles(xs, n=4, method="inclusive")
              for xs in (base, change))
    bmed, cmed = bq[1], cq[1]
    win = (lambda b, c: c < b) if better == "lower" else (lambda b, c: c > b)
    wins = sum(win(b, c) for b, c in zip(base, change))
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (bq, cq))
    separated = all(win(b, c) for b in base for c in change)
    gap = bmed - cmed if better == "lower" else cmed - bmed
    worse = -gap / abs(bmed) if bmed else (float("inf") if gap < 0 else 0.0)
    if len(set(base) | set(change)) == 1:
        verdict = "flat"
    elif worse > bound:
        verdict = "regression"
    elif wins >= GAIN_SHARE * len(base) and gap > bq[2] - bq[0]:
        verdict = "gain"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": bq, "change": cq, "ratio": ratio(base, change),
            "ci": bootstrap_ci(base, change), "wins": wins,
            "ties": sum(b == c for b, c in zip(base, change)),
            "pairs": len(base), "spread": spread, "worse": worse,
            "verdict": verdict}


def ratio(base, change):
    b = statistics.median(base)
    return statistics.median(change) / b if b else float("nan")


def bootstrap_ci(base, change):
    """95% CI of the change/base ratio of medians, resampling whole pairs.
    The RNG is seeded, so a given table always prints the same CI."""
    rng = random.Random(20130520)
    stats = []
    for _ in range(BOOTSTRAP):
        idx = [rng.randrange(len(base)) for _ in base]
        stats.append(ratio([base[i] for i in idx], [change[i] for i in idx]))
    stats.sort()
    return stats[int(0.025 * BOOTSTRAP)], stats[int(0.975 * BOOTSTRAP) - 1]


def judge(spec, table):
    """Judge a pair table against a BENCHMARK.json spec.

    table: {"workloads": {W: {"base": [result, ...], "change": [...]}}},
    each result being perfbench's JSON line (correct, attempted, failed,
    metrics: {name: {value, unit}}); run i of both sides is pair i. Returns
    (rows, shares, problems): one row per workload x end-to-end metric, each
    side's (failed, attempted) per workload, and one line per reason to
    fail. A table lacking a workload, a side or a metric raises ValueError."""
    rows, shares, problems = [], {}, []
    for w in (x["name"] for x in spec["workloads"]):
        sides = table.get("workloads", {}).get(w)
        if sides is None:
            raise ValueError("%s: no runs" % w)
        shares[w] = {}
        for side in ("base", "change"):
            runs = sides.get(side)
            if not runs:
                raise ValueError("%s: no %s runs" % (w, side))
            problems += ["%s: %s run %d is incorrect" % (w, side, i)
                         for i, r in enumerate(runs) if not r["correct"]]
            shares[w][side] = (sum(r["failed"] for r in runs),
                               sum(r["attempted"] for r in runs))
        share = {s: f / a if a else 0.0 for s, (f, a) in shares[w].items()}
        if share["change"] > share["base"]:
            problems.append("%s: failed share %.3g > base %.3g"
                            % (w, share["change"], share["base"]))
        for m in spec["end_to_end"]:
            vals = []
            for side in ("base", "change"):
                try:
                    vals.append([r["metrics"][m["name"]]["value"]
                                 for r in sides[side]])
                except KeyError:
                    raise ValueError("%s: %s run lacks %s"
                                     % (w, side, m["name"])) from None
            row = judge_metric(*vals, m["better"], m["bound"])
            row.update(workload=w, metric=m["name"], bound=m["bound"])
            rows.append(row)
            if row["verdict"] == "regression":
                problems.append("%s %s: regression, median %+.1f%% worse "
                                "(bound %g%%)" % (w, m["name"],
                                                  100 * row["worse"],
                                                  100 * m["bound"]))
    return rows, shares, problems


def num(v):
    return "%.4g" % v


def metric_table(rows):
    """One row per workload x metric; IQR/median is the wider side's spread,
    the run-to-run noise an A/A run measures."""
    out = ["| workload | metric | base | change | change/base [95% CI] "
           "| pairs change better | IQR/median | bound | verdict |",
           "|---|---|---|---|---|---|---|---|---|"]
    last = None
    for r in rows:
        side = ["%s [%s, %s]" % (num(q[1]), num(q[0]), num(q[2]))
                for q in (r["base"], r["change"])]
        better = "%d/%d" % (r["wins"], r["pairs"])
        if r["ties"]:
            better += " (%d tie%s)" % (r["ties"], "" if r["ties"] == 1 else "s")
        out.append("| %s | `%s` | %s | %s | %.3f [%.3f, %.3f] | %s | %.3f | %g "
                   "| %s |" % (r["workload"] if r["workload"] != last else "",
                               r["metric"], side[0], side[1], r["ratio"],
                               r["ci"][0], r["ci"][1], better, r["spread"],
                               r["bound"], r["verdict"]))
        last = r["workload"]
    return out


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree(sha):
    path = os.path.join(AB_DIR, sha[:12])
    if os.path.exists(os.path.join(path, ".git")):
        if git("rev-parse", "HEAD", cwd=path) == sha:
            return path
    shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")
    git("worktree", "add", "--detach", path, sha)
    return path


def perfbench(path, *args):
    """Run path's perfbench/run.py; returns its stdout lines."""
    p = subprocess.run([sys.executable, os.path.join(path, "perfbench",
                                                     "run.py")] + list(args),
                       cwd=path, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("ab: perfbench %s failed in %s:\n%s%s" % (
            " ".join(args), path, p.stdout, p.stderr[-4000:]))
    return p.stdout.rstrip("\n").split("\n")


def src_lines(path):
    per = {}
    for f in git("ls-files", "src", cwd=path).split("\n"):
        parts = f.split("/")
        key = ("`src/%s`" % parts[1] if len(parts) > 2
               else "`src/*` (top level)")
        with open(os.path.join(path, f), "rb") as fh:
            per[key] = per.get(key, 0) + fh.read().count(b"\n")
    return per


def text_bytes(path):
    """Summed .text of the built libsimdcv_*.a, and .text of perfbench."""
    build_dir = os.path.join(path, ".bench_build", "perfbench")
    libs = sorted(glob.glob(os.path.join(build_dir, "**", "libsimdcv_*.a"),
                            recursive=True))

    def size(*args):
        return subprocess.run(["size"] + list(args), check=True,
                              capture_output=True, text=True).stdout

    lib_text = int(size("-t", *libs).strip().split("\n")[-1].split()[0])
    bin_text = next(int(line.split()[1]) for line in
                    size("-A", os.path.join(build_dir, "perfbench")).split("\n")
                    if line.startswith(".text "))
    return lib_text, bin_text


def size_table(paths):
    lines = [src_lines(p) for p in paths]
    texts = [text_bytes(p) for p in paths]
    rows = [(k + " lines", lines[0].get(k, 0), lines[1].get(k, 0))
            for k in sorted(set(lines[0]) | set(lines[1]))]
    rows.append(("`src/` lines, total", sum(lines[0].values()),
                 sum(lines[1].values())))
    rows.append(("`libsimdcv_*.a` .text bytes", texts[0][0], texts[1][0]))
    rows.append(("`perfbench` .text bytes", texts[0][1], texts[1][1]))
    return ["| size | base | change | change − base |",
            "|---|---|---|---|"] + ["| %s | %d | %d | %+d |" % (k, b, c, c - b)
                                    for k, b, c in rows]


def report(spec, table, revs, paths, raw):
    """Print the tables of one A/B; returns the exit status."""
    rows, shares, problems = judge(spec, table)
    print("base %s = %s, change %s = %s" % (revs[0], table["base"][:12],
                                            revs[1], table["change"][:12]))
    print("%d pairs per workload, %d s runs, first side alternating; %s"
          % (PAIRS, spec["run_seconds"], table["host"]))
    print()
    print("\n".join(metric_table(rows)))
    print()
    print("| workload | failed ops, base | failed ops, change |")
    print("|---|---|---|")
    for w, s in shares.items():
        print("| %s | %d of %d | %d of %d |"
              % ((w,) + s["base"] + s["change"]))
    print()
    print("\n".join(size_table(paths)))
    print()
    print("raw pair table: %s" % os.path.relpath(raw, ROOT))
    for p in problems:
        print("FAIL: " + p)
    print("ab: %s" % ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main(argv):
    if not 1 <= len(argv) <= 2 or any(a.startswith("-") for a in argv):
        sys.exit("usage: scripts/ab.py <base-rev> [<rev>]")
    revs = [argv[0], argv[1] if len(argv) == 2 else "HEAD"]
    shas = [git("rev-parse", "--verify", r + "^{commit}") for r in revs]
    os.makedirs(AB_DIR, exist_ok=True)
    paths = [worktree(s) for s in shas]
    for p in dict.fromkeys(paths):
        perfbench(p, "--self-test")  # builds it; no compile overlaps a run
    with open(os.path.join(paths[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = {"base": shas[0], "change": shas[1], "host": None,
             "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        sides = table["workloads"][w] = {"base": [], "change": [],
                                         "seeds": []}
        for i in range(PAIRS):
            seed = secrets.randbelow(2**31 - 1) + 1
            sides["seeds"].append(seed)
            for side in ("base", "change")[::1 if i % 2 == 0 else -1]:
                out = perfbench(paths[side == "change"], "--workload", w,
                                "--seed", str(seed), "--seconds",
                                str(spec["run_seconds"]), "--trace", "0")
                table["host"] = table["host"] or out[0]
                sides[side].append(json.loads(out[-1]))
            print("ab: %s pair %d/%d seed %d done" % (w, i + 1, PAIRS, seed),
                  file=sys.stderr, flush=True)
    raw = os.path.join(AB_DIR, "%s-%s.json" % (shas[0][:12], shas[1][:12]))
    with open(raw, "w") as f:
        json.dump(table, f, indent=1)
    return report(spec, table, revs, paths, raw)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
