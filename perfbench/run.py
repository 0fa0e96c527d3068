"""The weylflags benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

- ``ff-grid``: `weylflags ff-verify --suite all` as a fresh process per
  (n, p) of a fixed grid, in seeded order.
- ``combinatorics-cli``: 93 seeded CLI requests, 80 light and 13 heavy.
- ``library-inproc``: one process calling the public API with warm caches.

All load comes from this one client in a closed loop: a request is sent
only after the previous one has finished, and at most one child process
runs at a time.  Every response is checked against values the benchmark
works out itself (verify.py).  Times are reported in reference seconds,
scaled by the machine's current speed on a fixed loop (speed.py); the
report also prints the measured seconds.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` the requests run once
untraced and once traced and it carries the per-layer metrics.  Earlier
lines are a human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import plans
import speed
import tracing
import verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 60.0
# Stop starting work this long after launch, so a run always exits well
# inside the 180 s a run may take, even when the program got much slower.
RUN_DEADLINE_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_s", "s"),
    ("req_tail_s", "s"),
    ("verified_check_points", "count"),
    ("peak_rss_mb", "MB"),
)

FF_CHECK_FUNCTIONS = (
    "point_count_identity", "incidence_count", "shortest_element_fq_check",
    "covering_degree_check", "fiber_dimension_check", "weight_map_check",
    "blowup_equation_check", "good_form_conjugate",
)

# per-layer metric -> span names whose covered time it sums
BUSY = {
    "jsonio.load_scenario.busy_s": ("jsonio.load_scenario",),
    "jsonio.to_json.busy_s": "jsonio encoders",
    "weyl.bruhat_leq.busy_s": ("weyl.multi_bruhat_leq",),
    "roots.dominance.busy_s": ("roots.dominance",),
    "cosets.enumerate_quotient.busy_s": ("cosets.enumerate_quotient",),
    "cosets.shortest_double_coset_rep.busy_s": ("cosets.shortest_double_coset_rep",),
    "steinberg.component_in_ZQP_roots.busy_s": ("steinberg.component_in_ZQP_roots",),
    "steinberg.component_in_ZQP.busy_s": ("steinberg.component_in_ZQP",),
    "steinberg.steinberg_components_full_flag.busy_s": ("steinberg.steinberg_components_full_flag",),
    "companion.companion_set.busy_s": ("companion.companion_set",),
    "companion.jordan_holder_cosets.busy_s": ("companion.jordan_holder_cosets",),
    "companion.certify_walk.busy_s": ("companion.certify_walk",),
    **{f"fforacle.{fn}.busy_s": (f"fforacle.{fn}",) for fn in FF_CHECK_FUNCTIONS},
}

# per-layer metric -> wrapped functions whose calls it counts
CALLS = {
    "jsonio.load_scenario.calls": ("jsonio.load_scenario",),
    "jsonio.to_json.calls": "jsonio encoders",
    "weyl.bruhat_leq.calls": ("weyl.bruhat_leq",),
    "weyl.length.calls": ("weyl.length",),
    "weyl.reduced_word.calls": ("weyl.reduced_word", "weyl.multi_reduced_word"),
    "roots.act.calls": ("roots.act",),
    "roots.dominance.calls": ("roots.dominance",),
    "cosets.enumerate_quotient.calls": ("cosets.enumerate_quotient",),
    "cosets.shortest_double_coset_rep.calls": ("cosets.shortest_double_coset_rep",),
    "cosets.quotient_leq.calls": ("cosets.quotient_leq",),
    "cosets.CosetRep.calls": ("cosets.CosetRep",),
    "steinberg.find_induction_step.calls": ("steinberg.find_induction_step",),
    **{f"fforacle.{fn}.calls": (f"fforacle.{fn}",) for fn in ("bruhat_cell_of", "mat_rank", "mat_mul", "mat_inv", "rref")},
}

# per-layer metric -> work counter (count) or (numerator, denominator)
WORK_COUNTS = {
    "cosets.enumerate_quotient.perms_scanned": "cosets.enumerate_quotient.perms_scanned",
    "cosets.enumerate_quotient.kept_ratio": ("cosets.enumerate_quotient.kept", "cosets.enumerate_quotient.perms_scanned"),
    "companion.companion_set.useful_ratio": ("companion.companion_set.kept", "companion.companion_set.scanned"),
    "companion.jordan_holder_cosets.useful_ratio": ("companion.jordan_holder_cosets.kept", "companion.jordan_holder_cosets.scanned"),
    "companion.certify_walk.steps": "companion.certify_walk.steps",
    "fforacle.mat_mul.madds": "fforacle.mat_mul.madds",
    "fforacle.cache.hits": "fforacle.cache.hits",
    "fforacle.cache.misses": "fforacle.cache.misses",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER = tuple(
    (name, _unit(name))
    for name in (
        ["cli.startup_s", "cli.main.self_s", "cli.stdout_bytes"]
        + list(BUSY) + list(CALLS) + list(WORK_COUNTS)
        + [f"{module}.errors" for module in tracing.MODULES]
        + ["trace.overhead_frac"]
    )
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# the checkout under test

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # set and dict order, hence call counts, repeat exactly
    return env


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to((ROOT / "src").resolve())


def describe_checkout(env: dict) -> dict:
    """Fail unless weylflags imports from this checkout's src; record what
    is measured and on what."""
    if not (ROOT / "src" / "weylflags" / "__init__.py").is_file():
        fail(f"no weylflags package under {ROOT / 'src'}")
    try:
        probe = subprocess.run(
            [sys.executable, "-c", "import weylflags; print(weylflags.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        fail("importing weylflags timed out")
    if probe.returncode != 0:
        fail(f"cannot import weylflags: {probe.stderr.strip()[-300:]}")
    module_file = probe.stdout.strip()
    if not _inside_src(module_file):
        fail(f"weylflags imports from {module_file}, outside {ROOT / 'src'}")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weylflags").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:  # not a repo that merely contains the checkout
        sha = git[1]
    return {
        "weylflags_file": module_file,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# one CLI request in its own process

class Response:
    __slots__ = ("code", "stdout", "stderr", "start", "end", "rss_kb", "timed_out")

    @property
    def latency(self) -> float:
        return self.end - self.start


def run_process(cmd, env, timeout) -> Response:
    """Run cmd to completion; kill it after ``timeout`` seconds.  Records
    spawn-to-exit time and the child's peak RSS."""
    res = Response()
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    lock = threading.Lock()
    state = {"exited": False, "fired": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        res.start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)

        def on_timeout():
            with lock:
                if not state["exited"]:
                    state["fired"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.1), on_timeout)
        timer.start()
        try:
            # wait for the exit without reaping, so the timer can never
            # signal a recycled pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            res.end = time.perf_counter()
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = res.code = os.waitstatus_to_exitcode(status)
    res.rss_kb = usage.ru_maxrss
    res.timed_out = state["fired"]
    res.stdout = out_path.read_bytes()
    res.stderr = err_path.read_bytes()
    return res


def run_cli(argv, env, timeout, trace_out=None, request=0) -> Response:
    cmd = [sys.executable, str(BENCH / "launcher.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out), str(request)]
    return run_process(cmd + list(argv), env, timeout)


# ---------------------------------------------------------------------------
# bookkeeping shared by the workloads

class Tally:
    """Attempted/failed counts, latency samples with the reference slices
    around them, verified points."""

    def __init__(self, reqs):
        self.ids = [spec["id"] for spec in reqs]
        self.samples = []  # (request id, measured seconds) in run order
        self.slices = []  # (samples taken so far, reference slice seconds)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failed_ids = set()
        self.verified = set()
        self.rss_kb = 0

    def take_slice(self):
        self.slices.append((len(self.samples), speed.reference_slice()))

    def latencies(self, scaled=True) -> dict:
        """Per request, its latency samples (in reference seconds if scaled)."""
        seconds = [s for _, s in self.samples]
        if scaled:
            seconds = speed.scale(list(enumerate(seconds)), self.slices)
        out = {rid: [] for rid in self.ids}
        for (rid, _), value in zip(self.samples, seconds):
            out[rid].append(value)
        return out

    def slowdown(self) -> float:
        """Median slice time over the nominal one: how slow the machine ran."""
        return statistics.median(t for _, t in self.slices) / speed.REF_NOMINAL_S

    def record(self, spec, problems, latency=None):
        self.attempted += 1
        if latency is not None:
            self.samples.append((spec["id"], latency))
        if problems:
            self.failed += 1
            self.failed_ids.add(spec["id"])
            if len(self.problems) < 20:
                self.problems.append(f"request {spec['id']} ({spec.get('kind', spec.get('part'))}): {'; '.join(problems[:3])}")

    def complete(self) -> bool:
        return {rid for rid, _ in self.samples} == set(self.ids)


def check_response(spec, res: Response):
    """Problems with one CLI response; ff-verify responses also yield the
    (check, n, p) points they verified."""
    if res.timed_out:
        return [f"timed out after {res.latency:.1f} s"], set()
    if spec["kind"] == "ff-verify":
        return verify.check_ff_response(spec, res.code, res.stdout, res.stderr)
    return verify.check_cli_response(spec, res.code, res.stdout, res.stderr), set()


def latency_summary(tally: Tally, scaled=True) -> dict:
    """wall_s, req_p50_s, req_tail_s from per-request median latencies."""
    per_request = sorted(statistics.median(v) for v in tally.latencies(scaled).values() if v)
    n = len(per_request)
    if n > 10:
        tail = per_request[n - 11]
        label = f"p{100 * (n - 10) / n:.1f} of {n} requests, 10 beyond it"
    else:
        tail = per_request[-1]
        label = f"max of {n} requests (fewer than 11)"
    return {
        "wall_s": sum(per_request),
        "req_p50_s": statistics.median(per_request),
        "req_tail_s": tail,
        "tail_label": label,
        "samples": len(tally.samples),
    }


def deadline_left(deadline: float) -> float:
    return deadline - time.perf_counter()


# ---------------------------------------------------------------------------
# CLI workloads (ff-grid, combinatorics-cli)

WARMUP = {
    "ff-grid": (["ff-verify", "--suite", "all", "--n", "2", "--p", "3"],),
    "combinatorics-cli": (
        ["weyl", "--perm", "[2,3,1]"],
        ["coset", "--perm", "[3,1,2]", "--blocks", "[2,1]", "--enumerate"],
    ),
}


def setup_cli(workload, seed, env):
    """Generate the requests, write scenario files, run an untimed warm-up
    (which also byte-compiles the package)."""
    t0 = time.perf_counter()
    scenario_dir = WORK / "scenarios"
    shutil.rmtree(scenario_dir, ignore_errors=True)
    scenario_dir.mkdir(parents=True)
    if workload == "ff-grid":
        reqs = plans.ff_grid_plan(seed)
    else:
        reqs = plans.combinatorics_plan(seed, scenario_dir)
        plans.write_scenarios(reqs)
    for argv in WARMUP[workload]:
        res = run_cli(argv, env, REQUEST_TIMEOUT_S)
        if res.code != 0:
            fail(f"warm-up request {argv} exited {res.code}: {res.stderr.decode()[-300:]}")
    return reqs, time.perf_counter() - t0


def _run_checked(spec, env, deadline, tally, trace_out=None):
    left = deadline_left(deadline)
    if left <= 0:
        tally.record(spec, ["not run: the run deadline passed"])
        return None
    tally.take_slice()
    res = run_cli(spec["argv"], env, min(REQUEST_TIMEOUT_S, left), trace_out, spec["id"])
    problems, verified = check_response(spec, res)
    tally.record(spec, problems, res.latency)
    if not problems:
        tally.verified |= verified
    tally.rss_kb = max(tally.rss_kb, res.rss_kb)
    return res


def measure_cli(reqs, seconds, env, deadline) -> Tally:
    """Cycle through the requests until ``seconds`` have passed and every
    request has run at least once."""
    tally = Tally(reqs)
    start = time.perf_counter()
    while True:
        for spec in reqs:
            if tally.complete() and time.perf_counter() - start >= seconds:
                tally.take_slice()
                return tally
            _run_checked(spec, env, deadline, tally)
        if deadline_left(deadline) <= 0:
            tally.take_slice()
            return tally


def trace_cli(reqs, env, deadline):
    """Each request once untraced, then once traced through the launcher."""
    untraced, traced = Tally(reqs), Tally(reqs)
    log = tracing.TraceLog()
    stdout_bytes = 0
    startups = []
    dump_path = WORK / "trace.json"
    for spec in reqs:
        _run_checked(spec, env, deadline, untraced)
        if dump_path.exists():
            dump_path.unlink()
        res = _run_checked(spec, env, deadline, traced, trace_out=dump_path)
        if res is None or not dump_path.exists():
            continue
        dump = json.loads(dump_path.read_text())
        stdout_bytes += len(res.stdout)
        root = log.add_span("request", res.start, res.end, -1, spec["id"])
        main_start = next(s[1] for s in dump["spans"] if dump["names"][s[0]] == "cli.main" and s[3] < 0)
        log.add_span("cli.startup", res.start, main_start, root, spec["id"])
        startups.append(main_start - res.start)
        log.add_dump(dump, root)
        log.work["fforacle.cache.hits"] += dump["cache"]["hits"]
        log.work["fforacle.cache.misses"] += dump["cache"]["misses"]
    untraced.take_slice()
    traced.take_slice()
    extra = {
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.stdout_bytes": stdout_bytes,
    }
    return untraced, traced, log, extra


def cli_workload(name, args, env, deadline):
    setups = []
    for _ in range(SETUP_REPEATS):
        reqs, elapsed = setup_cli(name, args.seed, env)
        setups.append((elapsed, speed.reference_slice()))
    if args.trace:
        untraced, traced, log, extra = trace_cli(reqs, env, deadline)
        return reqs, setups, untraced, traced, log, extra
    return reqs, setups, measure_cli(reqs, args.seconds, env, deadline), None, None, None


# ---------------------------------------------------------------------------
# library-inproc

def library_workload(args, env, deadline):
    """Set up SETUP_REPEATS child processes; the last one also measures."""
    plan_path, result_path = WORK / "library_plan.json", WORK / "library_result.json"
    setups = []
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        mode = ("trace" if args.trace else "run") if last else "setup"
        t0 = time.perf_counter()
        plan = plans.library_plan(args.seed)
        plan_path.write_text(json.dumps(plan))
        generated = time.perf_counter() - t0
        if result_path.exists():
            result_path.unlink()
        cmd = [sys.executable, str(BENCH / "libchild.py"), str(plan_path), str(result_path), str(args.seconds), mode]
        res = run_process(cmd, env, max(deadline_left(deadline), 1.0))
        if res.code != 0 or not result_path.exists():
            fail(f"library child ({mode}) exited {res.code}: {res.stderr.decode()[-500:]}")
        result = json.loads(result_path.read_text())
        if not _inside_src(result["weylflags_file"]):
            fail(f"library child imported weylflags from {result['weylflags_file']}")
        setups.append((generated + result["ready"] - res.start, speed.reference_slice()))
    tally = _child_tally(plan, result["untraced"])
    for request, msg in result["problems"]:
        tally.failed += 1
        tally.failed_ids.add(request)
        if len(tally.problems) < 20:
            tally.problems.append(f"request {request}: {msg}")
    tally.rss_kb = res.rss_kb
    if not args.trace:
        return plan, setups, tally, None, None, None
    traced = _child_tally(plan, result["traced"])
    log = tracing.TraceLog()
    log.add_dump(result["trace"])
    return plan, setups, tally, traced, log, {"cli.startup_s": 0.0, "cli.stdout_bytes": 0}


def _child_tally(plan, measured):
    tally = Tally(plan)
    tally.samples = [tuple(s) for s in measured["samples"]]
    tally.slices = [tuple(s) for s in measured["slices"]]
    tally.attempted = len(tally.samples)
    return tally


# ---------------------------------------------------------------------------
# metrics

def end_to_end(name, reqs, setups, tally) -> dict:
    lat = latency_summary(tally)
    if name == "ff-grid":
        verified = len(tally.verified)
    else:
        verified = len(reqs) - len(tally.failed_ids)
    raw = latency_summary(tally, scaled=False)
    return {
        "setup_s": statistics.median(s * speed.REF_NOMINAL_S / t for s, t in setups),
        "wall_s": lat["wall_s"],
        "req_p50_s": lat["req_p50_s"],
        "req_tail_s": lat["req_tail_s"],
        "verified_check_points": verified,
        "peak_rss_mb": tally.rss_kb / 1024,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "tail_label": lat["tail_label"],
        "samples": lat["samples"],
        "slowdown": tally.slowdown(),
        "raw": raw,
        "raw_setup_s": statistics.median(s for s, _ in setups),
    }


def per_layer(log: tracing.TraceLog, extra: dict, untraced: Tally, traced: Tally):
    spans = log.spans
    encoders = {s[0] for s in spans if s[0].startswith("jsonio.") and s[0].endswith("_to_json")}
    encoder_calls = [k for k in log.counts if k.startswith("jsonio.") and k.endswith("_to_json")]
    selfs = tracing.self_times(spans)
    out = dict(extra)
    out["cli.main.self_s"] = sum(t for s, t in zip(spans, selfs) if s[0] == "cli.main")
    for metric, names in BUSY.items():
        out[metric] = tracing.busy(spans, encoders if names == "jsonio encoders" else names)
    for metric, names in CALLS.items():
        out[metric] = sum(log.counts.get(k, 0) for k in (encoder_calls if names == "jsonio encoders" else names))
    for metric, key in WORK_COUNTS.items():
        if isinstance(key, tuple):
            den = log.work.get(key[1], 0)
            out[metric] = log.work.get(key[0], 0) / den if den else 0.0
        else:
            out[metric] = log.work.get(key, 0)
    for module in tracing.MODULES:
        out[f"{module}.errors"] = log.errors.get(module, 0)
    base = latency_summary(untraced)["wall_s"]
    out["trace.overhead_frac"] = latency_summary(traced)["wall_s"] / base - 1 if base else 0.0
    return out, selfs


def trace_report(log, selfs):
    by_name: dict = {}
    for span, own in zip(log.spans, selfs):
        by_name[span[0]] = by_name.get(span[0], 0.0) + own
    total = sum(by_name.values())
    lines = [f"trace: {len(log.spans)} spans, {total:.3f} s traced; largest self times:"]
    for name, own in sorted(by_name.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"  {name:<48} {own:9.4f} s  {100 * own / total:5.1f}%")
    sums = tracing.request_self_sums(log.spans, selfs)
    worst = max((abs(a - b) for a, b in sums.values()), default=0.0)
    lines.append(f"self-time sum vs request duration: worst gap {worst:.2e} s over {len(sums)} requests")
    return lines, worst


# ---------------------------------------------------------------------------

WORKLOADS = ("ff-grid", "combinatorics-cli", "library-inproc")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()
    info = describe_checkout(env)
    # One CPU for this client, its children and the reference slices, so
    # a slice measures the speed of the CPU the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.workload == "library-inproc":
            reqs, setups, tally, traced, log, extra = library_workload(args, env, deadline)
        else:
            reqs, setups, tally, traced, log, extra = cli_workload(args.workload, args, env, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("checkout " + json.dumps(info, sort_keys=True))
    e2e = end_to_end(args.workload, reqs, setups, tally)
    attempted, failed = tally.attempted, tally.failed
    if traced is not None:
        attempted += traced.attempted
        failed += traced.failed
    for name, unit in END_TO_END + (("error_rate", "fraction"),):
        print(f"  {name:<24} {e2e[name]:.6g} {unit}")
    print(f"  req_tail_s is the {e2e['tail_label']}; {e2e['samples']} latency samples")
    print(
        f"  times above are reference seconds; the machine ran {e2e['slowdown']:.3f}x the nominal"
        f" slice time, so measured seconds were: setup_s {e2e['raw_setup_s']:.4g}, wall_s"
        f" {e2e['raw']['wall_s']:.4g}, req_p50_s {e2e['raw']['req_p50_s']:.4g}, req_tail_s {e2e['raw']['req_tail_s']:.4g}"
    )
    print(f"  setup_s samples (measured): {', '.join(f'{s:.4f}' for s, _ in setups)}")
    for msg in tally.problems + (traced.problems if traced else []):
        print(f"  FAILED {msg}")
    complete = tally.complete() and (traced is None or traced.complete())
    if not complete:
        print("  FAILED not every request completed")
    if args.trace:
        layer, selfs = per_layer(log, extra, tally, traced)
        lines, worst = trace_report(log, selfs)
        print("\n".join(lines))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
