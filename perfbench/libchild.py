"""The library-inproc workload: one process calling the weylflags API.

    python3 perfbench/libchild.py PLAN RESULT SECONDS MODE

MODE is ``setup`` (import, build inputs, fill the flag caches, warm up,
report the ready time and exit), ``run`` (set up, then repeat the request
list for SECONDS) or ``trace`` (set up, one untraced pass, install the
span wrappers, one traced pass).  Each request is one public call (or the
pair of Steinberg routes on one triple), timed alone; checking the answer
happens outside the timed region.
"""

import json
import sys
import time

import speed
import verify

# a reference slice (about 10 ms) per this many requests (about 0.1 s)
SLICE_EVERY = 200


def build_calls(spec):
    """A zero-argument callable for the request and a checker for its result."""
    import weylflags
    from weylflags import fforacle

    part = spec["part"]
    if part == "route":
        ps, qs = {"t": tuple(spec["P"])}, {"t": tuple(spec["Q"])}
        h = verify.block_witness(spec["P"])
        spec["h"] = h
        coset = weylflags.CosetRep({"t": tuple(spec["w"])}, ps)
        hmap = {"t": h}

        def call():
            return (
                weylflags.component_in_ZQP_roots(coset, ps, qs),
                weylflags.component_in_ZQP(coset, ps, qs, hmap),
            )

        return call, lambda res: verify.check_route(spec, *res)
    if part == "walk":
        h = {tau: tuple(v) for tau, v in spec["h"].items()}
        blocks = {tau: verify.runs(v) for tau, v in h.items()}
        start = weylflags.CosetRep({tau: tuple(v) for tau, v in spec["start"].items()}, blocks)

        def check(cert):
            payload = {
                "start": {"rep": cert.start.rep},
                "end": {"rep": cert.end.rep},
                "length": len(cert.chain),
                "chain": [
                    {
                        "alpha": {"tau": s.alpha.tau, "i": s.alpha.i, "j": s.alpha.j},
                        "from": {"rep": s.w_from.rep, "lg": s.w_from.lg},
                        "to": {"rep": s.w_to.rep, "lg": s.w_to.lg},
                    }
                    for s in cert.chain
                ],
            }
            return verify.check_walk(spec, payload)

        return (lambda: weylflags.certify_walk(start, h)), check
    if part == "dcoset":
        w = {"t": tuple(spec["w"])}
        ps, qs = {"t": tuple(spec["P"])}, {"t": tuple(spec["Q"])}
        return (
            lambda: weylflags.shortest_double_coset_rep(w, qs, ps),
            lambda r: verify.check_dcoset(spec, tuple(r["t"])),
        )
    nu = fforacle.FqMatrix(spec["p"], tuple(tuple(row) for row in spec["nu"]))
    blocks = None if spec["blocks"] is None else tuple(spec["blocks"])

    def check(rep):
        return verify.check_incidence(spec, rep.count, len(rep.witnesses), sum(c for _, c in rep.by_cell))

    return (lambda: fforacle.incidence_count(nu, spec["condition"], spec["space"], blocks=blocks)), check


def setup(plan):
    """Build every request's inputs, fill the flag caches the incidence
    calls read, and warm up on a slice of the list."""
    from weylflags import fforacle

    calls = [build_calls(spec) for spec in plan]
    for spec in plan:
        if spec["part"] == "incidence":
            fforacle.enumerate_flags(spec["n"], spec["p"])
            if spec["blocks"] is not None:
                fforacle.enumerate_partial_flags(spec["n"], spec["p"], tuple(spec["blocks"]))
    for call, _ in calls[:300]:
        call()
    return calls


def one_pass(plan, calls, measured, problems, rec=None, cache_delta=None):
    """Run every request once, appending (request id, seconds) to
    measured["samples"] and a reference slice every SLICE_EVERY requests
    to measured["slices"]."""
    clock = time.perf_counter
    samples, slices = measured["samples"], measured["slices"]
    for k, (spec, (call, check)) in enumerate(zip(plan, calls)):
        if k % SLICE_EVERY == 0:
            slices.append((len(samples), speed.reference_slice()))
        if rec is not None:
            before = cache_delta()
            rec.request = spec["id"]
            root = rec.begin(rec.name_id(f"bench.{spec['part']}"))
        t0 = clock()
        try:
            result = call()
        except Exception as err:  # a failed request is reported, not fatal
            samples.append((spec["id"], clock() - t0))
            problems.append([spec["id"], f"{type(err).__name__}: {err}"])
            if rec is not None:
                rec.end(root)
            continue
        samples.append((spec["id"], clock() - t0))
        if rec is not None:
            rec.end(root)
            after = cache_delta()
            rec.work["fforacle.cache.hits"] += after[0] - before[0]
            rec.work["fforacle.cache.misses"] += after[1] - before[1]
        found = check(result)
        if found:
            problems.append([spec["id"], found[0]])
    slices.append((len(samples), speed.reference_slice()))


def main() -> int:
    plan_path, result_path, seconds, mode = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    import weylflags

    with open(plan_path) as fh:
        plan = json.load(fh)
    calls = setup(plan)
    ready = time.perf_counter()
    result = {"ready": ready, "weylflags_file": weylflags.__file__}
    if mode != "setup":
        untraced = {"samples": [], "slices": []}
        problems = []
        start = time.perf_counter()
        one_pass(plan, calls, untraced, problems)
        while mode == "run" and time.perf_counter() - start < seconds:
            one_pass(plan, calls, untraced, problems)
        result.update(untraced=untraced, problems=problems)
        if mode == "trace":
            import tracing

            rec = tracing.Recorder()
            tracing.install(rec)
            traced = {"samples": [], "slices": []}
            one_pass(plan, calls, traced, problems, rec, tracing.fforacle_cache_counts())
            result.update(traced=traced, trace=rec.dump())
    with open(result_path, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
