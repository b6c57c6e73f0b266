"""The benchmark's three workloads, each a closed loop of one client.

A workload builds its fixed state in `setup`, then runs rounds: `ops(r)`
lists the operations of round r, each a (label, callable) pair whose inputs
derive from the workload seed and r only.  `check` returns the failures in
one operation's output, `fingerprint` a SHA-256 of it.
"""

from __future__ import annotations

import hashlib
import io
from typing import Callable, List, Tuple

import numpy as np

from equisym import bench, checks, cli
from equisym.stochmap import RandomStream

VARIANTS = bench.VARIANTS
SYMMETRISED = ("sym_haar", "sym_recursive", "canonical_deterministic")

# Criterion-8 shape: d=2, B=128, hidden=64, lr=1e-4, condition cap 1e4.
SHAPE = dict(d=2, batch_size=128, hidden=64, lr=1e-4, condition_cap=1e4)
TRAIN_STEPS = 100
EVAL_PARAM_STEPS = 100  # training that fixes the evaluate workload's parameters
EVAL_ARGS = dict(n_test=512, n_mc=100, n_gap_pairs=100)
GAP_SYMMETRISED_MAX = 1e-6
GAP_PLAIN_MIN = 1e-2

Op = Tuple[str, Callable[[], object]]


def derive(*keys: int) -> int:
    """A 64-bit seed determined by the keys alone."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def final_objective(history) -> float:
    """Mean objective over the last tenth of the steps."""
    tail = history[-max(1, len(history) // 10):]
    return float(np.mean([obj for _, obj in tail]))


class Train:
    name = "train"
    steps_per_op = TRAIN_STEPS
    steps_per_round = TRAIN_STEPS * len(VARIANTS)
    evals_per_round = 0
    kernel = "batched"  # speed.py reference kernel

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        for i, variant in enumerate(VARIANTS):
            bench.train(self.config(variant, derive(self.seed, 1 << 20, i), steps=2))

    def config(self, variant: str, seed: int, steps: int = TRAIN_STEPS) -> bench.TrainConfig:
        return bench.TrainConfig(variant=variant, steps=steps, seed=seed, **SHAPE)

    def ops(self, r: int) -> List[Op]:
        return [(v, lambda v=v, i=i: bench.train(self.config(v, derive(self.seed, r, i))))
                for i, v in enumerate(VARIANTS)]

    def check(self, label: str, result) -> List[str]:
        bad = []
        if result.diverged or len(result.history) != TRAIN_STEPS:
            bad.append(f"{label}: diverged after {len(result.history)} steps")
        if not all(np.all(np.isfinite(p)) for p in result.params):
            bad.append(f"{label}: non-finite parameters")
        return bad

    def fingerprint(self, result) -> str:
        return sha256(*result.params)

    def attempts(self, result) -> int:
        return 1

    def quality(self, result) -> float:
        return final_objective(result.history)


class Evaluate:
    name = "evaluate"
    steps_per_op = steps_per_round = 0
    evals_per_round = len(VARIANTS)
    kernel = "mixed"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = {}

    def setup(self) -> None:
        for i, variant in enumerate(VARIANTS):
            config = bench.TrainConfig(variant=variant, steps=EVAL_PARAM_STEPS,
                                       seed=derive(self.seed, 1 << 20, i), **SHAPE)
            result = bench.train(config)
            if result.diverged:
                raise RuntimeError(f"set-up training of {variant} diverged")
            self.params[variant] = (bench.InversionModel(variant, config.d, config.hidden),
                                    result.params)

    def ops(self, r: int) -> List[Op]:
        def run(variant, i):
            model, params = self.params[variant]
            return bench.evaluate(model, params, stream=RandomStream(derive(self.seed, r, i)),
                                  condition_cap=SHAPE["condition_cap"], **EVAL_ARGS)
        return [(v, lambda v=v, i=i: run(v, i)) for i, v in enumerate(VARIANTS)]

    def check(self, label: str, result) -> List[str]:
        loss, gap = result
        bad = []
        if not (np.isfinite(loss) and np.isfinite(gap)):
            bad.append(f"{label}: non-finite loss or gap")
        elif label in SYMMETRISED and gap > GAP_SYMMETRISED_MAX:
            bad.append(f"{label}: equivariance gap {gap:.3e} > {GAP_SYMMETRISED_MAX}")
        elif label not in SYMMETRISED and gap <= GAP_PLAIN_MIN:
            bad.append(f"{label}: equivariance gap {gap:.3e} <= {GAP_PLAIN_MIN}")
        return bad

    def fingerprint(self, result) -> str:
        return sha256(np.array(result))

    def attempts(self, result) -> int:
        return 1

    def quality(self, result) -> float:
        return float(result[0])


class Checks:
    name = "checks"
    steps_per_op = steps_per_round = evals_per_round = 0
    kernel = "mixed"

    def __init__(self, seed: int):
        # The suites draw from the library's fixed DEFAULT_SEED; the workload
        # seed does not change their inputs.
        self.seed = seed

    def setup(self) -> None:
        checks.standard_groups()
        checks.standard_bundles()

    def ops(self, r: int) -> List[Op]:
        # run_check("all") runs these suites in this order
        def run(suite):
            out = io.StringIO()
            code = cli.run_check(suite, out=out)
            return code, out.getvalue()
        return [(suite, lambda suite=suite: run(suite)) for suite in checks.SUITES]

    @staticmethod
    def rows(result) -> List[str]:
        return [line for line in result[1].splitlines() if line.startswith("[")]

    def check(self, label: str, result) -> List[str]:
        code, _ = result
        bad = [row for row in self.rows(result) if not row.startswith("[PASS]")]
        if code != 0 and not bad:
            bad.append(f"run_check returned {code}")
        return bad

    def fingerprint(self, result) -> str:
        return hashlib.sha256(result[1].encode()).hexdigest()

    def attempts(self, result) -> int:
        return max(1, len(self.rows(result)))


WORKLOADS = {w.name: w for w in (Train, Evaluate, Checks)}
