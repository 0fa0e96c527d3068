"""Tests of the benchmark's own logic (not of weylflags).

    python3 -m pytest perfbench      # or: python3 -m unittest discover -s perfbench

They import weylflags from this checkout's src to produce genuine
responses, then corrupt them.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import plans  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402


def cli_response(argv):
    """(exit code, stdout bytes, stderr bytes) of weylflags.cli.main in-process."""
    from weylflags import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


class PlanTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_same_seed_same_requests(self):
        self.assertEqual(plans.ff_grid_plan(7), plans.ff_grid_plan(7))
        self.assertEqual(plans.combinatorics_plan(7, self.dir), plans.combinatorics_plan(7, self.dir))
        self.assertEqual(plans.library_plan(7), plans.library_plan(7))

    def test_other_seed_other_inputs_same_classes(self):
        a, b = plans.combinatorics_plan(1, self.dir), plans.combinatorics_plan(2, self.dir)
        self.assertNotEqual([r["argv"] for r in a], [r["argv"] for r in b])
        classes = lambda reqs: Counter((r["cls"], r["kind"], r["expect_code"]) for r in reqs)  # noqa: E731
        self.assertEqual(classes(a), classes(b))
        self.assertEqual(Counter(r["cls"] for r in a), {"light": 80, "heavy": 13})

        a, b = plans.library_plan(1), plans.library_plan(2)
        self.assertNotEqual(a, b)
        self.assertEqual(Counter(r["part"] for r in a), Counter(r["part"] for r in b))

        a, b = plans.ff_grid_plan(1), plans.ff_grid_plan(2)
        self.assertNotEqual([r["argv"] for r in a], [r["argv"] for r in b])
        self.assertEqual(sorted((r["n"], r["p"]) for r in a), sorted(plans.FF_GRID))

    def test_light_requests_check_clean(self):
        reqs = plans.combinatorics_plan(5, self.dir)
        plans.write_scenarios(reqs)
        for spec in reqs:
            if spec["cls"] == "light":
                problems = verify.check_cli_response(spec, *cli_response(spec["argv"]))
                self.assertEqual(problems, [], spec["argv"])

    def test_library_closed_forms(self):
        """Every incidence request's closed-form count matches the library."""
        from weylflags import fforacle

        for spec in plans.library_plan(3):
            if spec["part"] != "incidence":
                continue
            nu = fforacle.FqMatrix(spec["p"], tuple(map(tuple, spec["nu"])))
            blocks = None if spec["blocks"] is None else tuple(spec["blocks"])
            rep = fforacle.incidence_count(nu, spec["condition"], spec["space"], blocks=blocks)
            self.assertEqual(rep.count, spec["expected"], spec)


class CorruptionTests(unittest.TestCase):
    """A corrupted response must count as failed."""

    def test_ff_verify(self):
        spec = plans.ff_grid_plan(0)[0] | {"n": 2, "p": 3, "argv": ["ff-verify", "--n", "2", "--p", "3"]}
        code, out, err = cli_response(spec["argv"])
        problems, verified = verify.check_ff_response(spec, code, out, err)
        self.assertEqual(problems, [])
        self.assertEqual(len(verified), 8)

        payload = json.loads(out)
        flipped = json.loads(out)
        flipped["results"][0]["pass"] = False
        wrong = json.loads(out)
        row = next(r for r in wrong["results"] if r["check"] == "point_count")
        row["observed"] += 1
        row["expected"] += 1
        for bad in (flipped, wrong):
            problems, verified = verify.check_ff_response(spec, 0, json.dumps(bad).encode(), b"")
            self.assertTrue(problems)
            self.assertLess(len(verified), 8)
        self.assertTrue(verify.check_ff_response(spec, 1, out, err)[0])
        self.assertTrue(verify.check_ff_response(spec, 0, out[:-5], err)[0])
        skipped = dict(payload)
        skipped["results"] = [dict(r, skipped=True) if r["check"] == "blowup" else r for r in payload["results"]]
        self.assertEqual(len(verify.check_ff_response(spec, 0, json.dumps(skipped).encode(), b"")[1]), 7)

    def test_coset_enumerate(self):
        spec = {"kind": "coset", "perm": {"tau": [3, 1, 4, 2]}, "blocks": {"tau": [2, 1, 1]},
                "qblocks": {"tau": [1, 3]}, "enumerate": True, "expect_code": 0}
        argv = ["coset", "--perm", "[3,1,4,2]", "--blocks", "[2,1,1]", "--qblocks", "[1,3]", "--enumerate"]
        code, out, err = cli_response(argv)
        self.assertEqual(verify.check_cli_response(spec, code, out, err), [])
        for corrupt in (
            lambda p: p["quotient"].pop(),
            lambda p: p.update(is_min_rep=not p["is_min_rep"]),
            lambda p: p.update(lg=p["lg"] + 1),
            lambda p: p["quotient"][3].update(lg=0),
            lambda p: p.update(double_coset_rep=p["perm"]),
        ):
            payload = json.loads(out)
            corrupt(payload)
            self.assertTrue(verify.check_cli_response(spec, 0, json.dumps(payload).encode(), b""))
        self.assertTrue(verify.check_cli_response(spec, 1, out, err))
        self.assertTrue(verify.check_cli_response(spec, 0, out, b"Traceback (most recent call last):\n"))

    def test_companion_exit_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            reqs = plans.combinatorics_plan(4, Path(tmp))
            plans.write_scenarios(reqs)
            nongeneric = next(r for r in reqs if r["kind"] == "companion" and r["expect_code"] == 1)
            code, out, err = cli_response(nongeneric["argv"])
        self.assertEqual(verify.check_cli_response(nongeneric, code, out, err), [])
        self.assertTrue(verify.check_cli_response(nongeneric, 0, out, err))
        payload = json.loads(out)
        payload["count"] += 1
        self.assertTrue(verify.check_cli_response(nongeneric, 1, json.dumps(payload).encode(), b""))

    def test_walk(self):
        spec = {"kind": "walk", "h": {"a": [0, 1, 1, 2]}, "start": {"a": [2, 1, 3, 4]}, "expect_code": 0}
        code, out, err = cli_response(["walk", "--h", '{"a": [0, 1, 1, 2]}', "--perm", '{"a": [2, 1, 3, 4]}'])
        self.assertEqual(verify.check_cli_response(spec, code, out, err), [])
        payload = json.loads(out)
        payload["chain"].pop()
        payload["length"] -= 1
        self.assertTrue(verify.check_cli_response(spec, 0, json.dumps(payload).encode(), b""))


class TraceArithmeticTests(unittest.TestCase):
    # root [0, 10] holds A [1, 4] and B [5, 9]; A holds A1 [2, 3]; B holds
    # B1 [6, 7] and a second A [7, 8]; request 2 is one span [20, 21].
    SPANS = [
        ("root", 0.0, 10.0, -1, 1),
        ("A", 1.0, 4.0, 0, 1),
        ("A1", 2.0, 3.0, 1, 1),
        ("B", 5.0, 9.0, 0, 1),
        ("B1", 6.0, 7.0, 3, 1),
        ("A", 7.0, 8.0, 3, 1),
        ("other", 20.0, 21.0, -1, 2),
    ]

    def test_self_times(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.0])

    def test_self_times_sum_to_request_duration(self):
        sums = tracing.request_self_sums(self.SPANS, tracing.self_times(self.SPANS))
        self.assertEqual(sums, {1: (10.0, 10.0), 2: (1.0, 1.0)})

    def test_busy_counts_nested_spans_once(self):
        self.assertEqual(tracing.busy(self.SPANS, {"A"}), 4.0)
        self.assertEqual(tracing.busy(self.SPANS, {"A", "A1"}), 4.0)
        self.assertEqual(tracing.busy(self.SPANS, {"B", "A"}), 7.0)

    def test_overlapping_children_are_not_double_counted(self):
        spans = [("p", 0.0, 4.0, -1, 0), ("c", 1.0, 3.0, 0, 0), ("c", 2.0, 5.0, 0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)

    def test_launcher_trace_dump(self):
        with tempfile.TemporaryDirectory() as tmp:
            dump_path = Path(tmp) / "trace.json"
            done = subprocess.run(
                [sys.executable, str(HERE / "launcher.py"), "--trace-out", str(dump_path), "4",
                 "coset", "--perm", "[3,1,2]", "--blocks", "[2,1]", "--enumerate"],
                env=run.child_env(), capture_output=True, timeout=60,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            dump = json.loads(dump_path.read_text())
        roots = [s for s in dump["spans"] if s[3] < 0]
        self.assertEqual([dump["names"][s[0]] for s in roots], ["cli.main"])
        self.assertTrue(all(s[4] == 4 for s in dump["spans"]))
        self.assertEqual(dump["counts"]["cosets.enumerate_quotient"], 1)
        self.assertEqual(dump["work"]["cosets.enumerate_quotient.perms_scanned"], 6)
        self.assertEqual(dump["work"]["cosets.enumerate_quotient.kept"], 3)


class SpeedTests(unittest.TestCase):
    def test_scale_uses_the_nearest_slices(self):
        nominal = speed.REF_NOMINAL_S
        slices = [(0, nominal), (1, nominal), (2, nominal), (3, 2 * nominal), (4, 2 * nominal),
                  (5, 2 * nominal), (6, 2 * nominal)]
        scaled = speed.scale([(0, 1.0), (5, 1.0)], slices)
        self.assertEqual(scaled, [1.0, 0.5])


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
