"""The benchmark's own tests: a small-size smoke run of every workload,
and planted wrong answers that each output check must reject.

Run from the root of a checkout:

    python3 perfbench/selftest.py

(The name keeps the repository's own test collection from picking it up.)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class SmokeRun(unittest.TestCase):
    """Every workload at small size, through the command BENCHMARK.json names."""

    def run_benchmark(self, workload: str, trace: int) -> dict:
        bench = _benchmark_json()
        cmd = [sys.executable] + bench["command"][1:] + [
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "small"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        key = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]), {m["name"] for m in bench[key]})
        for m in bench[key]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_workloads(self):
        for wl in (w["name"] for w in _benchmark_json()["workloads"]):
            with self.subTest(workload=wl):
                e2e = self.run_benchmark(wl, 0)["metrics"]
                self.assertGreater(e2e["py_calls"]["value"], 0)

    def test_per_layer(self):
        layers = self.run_benchmark("lemma-corpus", 1)["metrics"]
        self.assertGreater(layers["ideal_sem.ideal_step_ex.calls"]["value"], 0)
        self.assertGreater(layers["lang.parse_com.s"]["value"], 0)


class PlantedWrongAnswers(unittest.TestCase):
    """Each check must reject a wrong answer planted into a real output."""

    def setUp(self):
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work"))
        self.cwd = os.getcwd()
        os.chdir(self.tmp.name)

    def tearDown(self):
        os.chdir(self.cwd)
        self.tmp.cleanup()

    def workload(self, name: str):
        wl = workloads.WORKLOADS[name](3, True)
        wl.write(".")
        return wl, checks.Context(wl)

    def real(self, wl, check: str, **info):
        op = next(o for o in wl.ops if o.check == check
                  and all(o.get(k) == v for k, v in info.items()))
        return op, checks.run_cli(op.argv)

    def test_real_outputs_pass(self):
        for name in workloads.WORKLOADS:
            wl, ctx = self.workload(name)
            for op in wl.ops:
                res = checks.run_cli(op.argv)
                self.assertEqual(checks.check(ctx, op, res), [], op.argv)

    def test_flipped_verdict(self):
        wl, ctx = self.workload("relsec-pairs")
        op, res = self.real(wl, "relsec", variant="none")
        self.assertEqual(checks.check(ctx, op, res), [])
        flipped = checks.Result(0, "holds\n", "")
        self.assertTrue(any("leaks" in p for p in checks.check(ctx, op, flipped)))

        wl, ctx = self.workload("sct-deep")
        op, res = self.real(wl, "sct", variant="uslh")
        self.assertEqual(checks.check(ctx, op, res), [])
        flipped = checks.Result(1, res.out.replace("holds", "violated", 1), "")
        self.assertTrue(any("theorem says holds" in p for p in checks.check(ctx, op, flipped)))

        op, res = self.real(wl, "repro", listing=2)
        flipped = checks.Result(1, res.out.replace('"holds"', '"violated"'), "")
        self.assertNotEqual(checks.check(ctx, op, flipped), [])

    def test_tampered_witness_directive(self):
        wl, ctx = self.workload("relsec-pairs")
        op, res = self.real(wl, "relsec", variant="none")
        dirs = next(ln for ln in res.out.splitlines() if ln.startswith("directives: "))
        self.assertIn("load a3 0", dirs)
        tampered = checks.Result(1, res.out.replace(dirs, dirs.replace("load a3 0", "load a1 0")), "")
        self.assertTrue(any("replay" in p for p in checks.check(ctx, op, tampered)))

        wl, ctx = self.workload("sct-deep")
        op, res = self.real(wl, "repro", listing=1)
        self.assertEqual(checks.check(ctx, op, res), [])
        tampered = checks.Result(1, res.out.replace("load a3 0", "load a1 0"), "")
        self.assertTrue(any("replay" in p for p in checks.check(ctx, op, tampered)))

    def test_vacuous_holds(self):
        # a secret branch guards a public assignment: no pair of the space
        # passes the sequential premise, so any relsec holds is vacuous
        wl = workloads.Workload(
            "vacuous",
            [workloads.Op(("check", "--property", "relsec", "--variant", "islh",
                           "--labels", "gadget.labels", "--space", "relsec.space",
                           "--max-dirs", "4", "--fuel", "200", "gadget.aw"),
                          "relsec", (("variant", "islh"),))],
            {"gadget.labels": {"x": "public", "s": "secret"}},
            {"relsec.space": workloads.Space((("s", (0, 1)), ("x", (0,))), ())},
            {"gadget.aw": "if s = 0 then x := 1 end\n",
             "gadget.labels": "x: public\ns: secret\n",
             "relsec.space": "s in {0,1}\nx in {0}\n"},
        )
        wl.write(".")
        op = wl.ops[0]
        res = checks.run_cli(op.argv)
        problems = checks.check(checks.Context(wl), op, res)
        self.assertTrue(any("vacuous" in p for p in problems), (res, problems))

    def test_sequentially_different_hardening(self):
        wl, ctx = self.workload("lemma-corpus")
        op, res = self.real(wl, "harden", variant="fvslh")
        self.assertEqual(checks.check(ctx, op, res), [])
        # a leading in-bounds write adds an observation to the trace
        planted = checks.Result(0, "A[0] <- 1;\n" + res.out, "")
        self.assertNotEqual(checks.check(ctx, op, planted), [])


if __name__ == "__main__":
    unittest.main()
