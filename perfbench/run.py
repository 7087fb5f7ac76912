"""toruscan benchmark: one workload through the public command line, timed.

    python3 perfbench/run.py --workload ref-general-w2 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run measures whole rounds (see
workloads.py) through toruscan.cli.main until --seconds have passed and
every position of the workload's cycle has run, then checks every output
file against the property checks and a sample against the independent
reference, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the same rounds
are run a second time with per-layer wrappers installed and the per-layer
metrics are reported instead, and the spans are written to
perfbench/out/<workload>/trace.json.
"""

import time

_T0 = time.perf_counter()  # fallback start of set-up when /proc is missing

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Host speed: the shared machine this was made on runs identical code up to
# ~40% slower at times (seconds to minutes).  Each round's wall and CPU time
# are scaled by PROBE_REF_S / p, where p is the mean time of a fixed
# pure-Python loop run just before and just after the round and PROBE_REF_S
# its median there, so rates are in reference-host seconds.  README.md
# gives the raw and scaled spreads of every workload from the same runs.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.015
N_ORACLE_CELLS = 6  # Nonexistence cells judged by the reference per run
SECTION_HORIZON = 40.0  # the reference follows one orbit per run this far
MAX_PROBLEMS_SHOWN = 20


def since_process_start():
    """Seconds since this process started (kernel start time when readable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def cpu_seconds():
    """User + system CPU of this process and its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def probe_seconds():
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += i * 0.5
    return time.perf_counter() - t0


def run_rounds(cli, plan, n_rounds, seconds, out_dir, tag):
    """Run n_rounds rounds, or (n_rounds None) rounds until seconds have
    passed and the whole cycle has run at least once.

    Returns (rounds, seeds of crashed rounds, [(wall s, cpu s, probe before
    s, probe after s) per round]).
    """
    rounds, failed, times = [], 0, []
    t0 = time.perf_counter()
    k = 0
    while True:
        rnd = plan.round(k, os.path.join(out_dir, f"{tag}{k:03d}"))
        err = io.StringIO()
        p = probe_seconds()
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with redirect_stderr(err):
                rc = cli.main(rnd.argv)
        except Exception as exc:  # a crashing round is a failed round
            rc = repr(exc)
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        times.append((wall, cpu, p, probe_seconds()))
        if rc != 0:
            failed += rnd.n_seeds
            print(f"round {k} failed ({rc}): {err.getvalue()[-2000:]}", file=sys.stderr)
        rounds.append(rnd)
        k += 1
        if n_rounds is None:
            if time.perf_counter() - t0 >= seconds and k >= plan.cycle:
                break
        elif k >= n_rounds:
            break
    return rounds, failed, times


def scaled(times):
    """[(wall, cpu)] per round in reference-host seconds."""
    return [
        (w * PROBE_REF_S / (0.5 * (p0 + p1)), c * PROBE_REF_S / (0.5 * (p0 + p1)))
        for w, c, p0, p1 in times
    ]


def cycle_seconds(rounds, times):
    """(wall, cpu) of one cycle: per position the median over its repeats,
    summed over the positions, so a run's mix does not depend on where its
    time ran out and a slow stretch of the host does not decide it."""
    by_pos = {}
    for rnd, t in zip(rounds, times):
        by_pos.setdefault(rnd.position, []).append(t)
    wall = sum(statistics.median(w for w, _ in ts) for ts in by_pos.values())
    cpu = sum(statistics.median(c for _, c in ts) for ts in by_pos.values())
    return wall, cpu


def unexplained_singular(plan, rounds):
    """Seeds that toruscan wrote as SingularSeed although no singularity of
    the seed explains it: cells whose detector raised (see checks.py)."""
    import checks

    if plan.kind != "scan":
        return 0
    n = 0
    for rnd in rounds:
        try:
            cells = checks.read_scan_csv(rnd.prefix + ".csv")
        except (OSError, ValueError):
            continue  # reported by the property checks
        bad = checks.unexplained_singular(cells, plan.mu, plan.formulation, plan.exclusion_tol)
        for i, j in bad[:MAX_PROBLEMS_SHOWN]:
            print(f"failed seed: {rnd.prefix} cell ({i},{j}) is SingularSeed", file=sys.stderr)
        n += len(bad)
    return n


def check_outputs(plan, rounds, seed):
    """Property checks on every round, and every repeat of a cycle position
    byte-identical to its first round; the pattern and the reference on the
    distinct seeds (the first round at each position).

    Returns (problems, summary dict).
    """
    import checks
    import oracle

    problems, summary = [], {}
    rng = random.Random(f"oracle:{seed}")
    first = {}
    for rnd in rounds:
        first.setdefault(rnd.position, rnd)
        try:
            same = read_csv_text(rnd) == read_csv_text(first[rnd.position])
        except OSError:
            continue  # reported by the property checks
        if not same:
            problems.append(f"{rnd.prefix}.csv differs from {first[rnd.position].prefix}.csv")
    if plan.kind == "scan":
        for rnd in rounds:
            problems += checks.check_scan(
                rnd.prefix, plan.grid, plan.mu, plan.t_out, plan.exclusion_tol, plan.png_scale
            )
        cells = []
        for rnd in first.values():
            try:
                cells += checks.read_scan_csv(rnd.prefix + ".csv").values()
            except (OSError, ValueError):
                pass  # already reported by check_scan
        problems += checks.check_pattern(cells)
        fired = sorted(
            (c["r"], c["L"], c["t_detect"]) for c in cells if c["cls"] == "Nonexistence"
        )
        verdicts = {"pass": 0, "fail": 0, "skip": 0}
        for r, L, t_detect in rng.sample(fired, min(N_ORACLE_CELLS, len(fired))):
            verdict, detail = oracle.check_detection(
                r, L, plan.mu, plan.formulation, t_detect, plan.t_out
            )
            verdicts[verdict] += 1
            if verdict == "fail":
                problems.append(f"reference: cell r={r!r} L={L!r}: {detail}")
        summary = {"cells": len(cells), "reference_cells": verdicts}
    else:
        for rnd in rounds:
            problems += checks.check_section(rnd.prefix + ".csv", rnd.seeds, plan.mu, plan.t_out)
        orbits = []
        for rnd in first.values():
            try:
                blocks = checks.read_section_csv(rnd.prefix + ".csv")
            except (OSError, ValueError):
                continue  # already reported by check_section
            orbits += [(rl, [row[0] for row in rows]) for rl, (_, rows) in zip(rnd.seeds, blocks)]
        if not orbits:
            return problems + ["no readable section output"], {}
        (r, L), times = rng.choice(orbits)
        n_pass, n_skip, failures = oracle.check_section(r, L, plan.mu, SECTION_HORIZON, times)
        problems += [f"reference: orbit r={r!r} L={L!r}: {f}" for f in failures]
        summary = {
            "orbits": len(orbits),
            "crossings": sum(len(t) for _, t in orbits),
            "reference_crossings": {"pass": n_pass, "skip": n_skip, "fail": len(failures)},
        }
    return problems, summary


def read_csv_text(rnd):
    with open(rnd.prefix + ".csv", encoding="utf-8") as fh:
        return fh.read()


def trace_consistency(plan, untraced, traced, metrics):
    """The traced rounds reproduce the untraced outputs, and the counts match them."""
    import checks

    problems = []
    for u, t in zip(untraced, traced):
        if read_csv_text(u) != read_csv_text(t):
            problems.append(f"traced output {t.prefix}.csv differs from {u.prefix}.csv")
    if plan.kind == "scan":
        ran = sum(
            c["cls"] != "SingularSeed"
            for rnd in traced
            for c in checks.read_scan_csv(rnd.prefix + ".csv").values()
        )
        if metrics["detector.runs"] != ran:
            problems.append(f"detector.runs {metrics['detector.runs']} != {ran} detector cells")
    else:
        rows = sum(
            len(rows) for rnd in traced for _, rows in checks.read_section_csv(rnd.prefix + ".csv")
        )
        if metrics["section.crossings"] != rows:
            problems.append(f"section.crossings {metrics['section.crossings']} != {rows} CSV rows")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    # Set-up: import the program and build the run's configuration and seeds.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import toruscan.cli as cli

    plan = workloads.make_plan(args.workload, ROOT, args.seed)
    setup_s = since_process_start()

    # The benchmark's own housekeeping, outside every timed span.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    rounds, failed, times = run_rounds(cli, plan, None, args.seconds, out_dir, "r")
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
        try:
            traced, failed_t, times_t = run_rounds(cli, plan, len(rounds), None, out_dir, "t")
        finally:
            tracer.uninstall()
    attempted = sum(rnd.n_seeds for rnd in rounds)
    failed += unexplained_singular(plan, rounds)
    wall, cpu = cycle_seconds(rounds, scaled(times))
    # Seeds of one cycle that finished, at the run's share of failed seeds.
    cycle_seeds = sum({rnd.position: rnd.n_seeds for rnd in rounds}.values())
    finished = cycle_seeds * (attempted - failed) / attempted
    with open(os.path.join(out_dir, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump([[rnd.position, rnd.n_seeds, *t] for rnd, t in zip(rounds, times)], fh)

    if args.trace:
        values = tracing.layer_metrics(tracer)
        values["trace.overhead_s"] = sum(w for w, _ in scaled(times_t)) - sum(
            w for w, _ in scaled(times)
        )
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracing.spans_json(tracer), "metrics": values}, fh)
        problems = trace_consistency(plan, rounds, traced, values)
        failed += failed_t + unexplained_singular(plan, traced)
        attempted += sum(rnd.n_seeds for rnd in traced)
        kind = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "seeds_per_s": finished / wall,
            "cpu_ms_per_seed": 1e3 * cpu / max(finished, 1),
            "peak_rss_mb": peak_rss_mb(),
        }
        problems = [] if finished else ["no seed finished"]
        kind = "end_to_end"

    found, summary = check_outputs(plan, rounds, args.seed)
    problems += found
    for p in problems[:MAX_PROBLEMS_SHOWN]:
        print("PROBLEM:", p, file=sys.stderr)
    summary.update(rounds=len(rounds), cycle_wall_s=wall, problems=len(problems))
    print(json.dumps(summary), file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
