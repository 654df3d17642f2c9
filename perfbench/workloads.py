"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, makes one call into
solenoidlab, checks the output against a bound that the code or the
acceptance suite already states, and digests the output so that a change of
output bits is visible.  Every workload makes a different layer do most of
the work; README.md gives the shares and the reasons.

Library entry points are looked up on their modules at call time, so the
traced run's wrappers (layers.py) see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for CLI reports, inside the checkout.
OUT = Path(__file__).resolve().parent / "_out"

#: Predicted fiber dimension log b / log(1/gamma) for b = 2, gamma = 0.4.
ALPHA_2_04 = math.log(2) / math.log(2.5)


def lab(module: str):
    """Import ``solenoidlab.<module>`` from this checkout's ``src/``.

    ``solenoidlab/__init__`` re-exports functions named like some modules
    (``entropy``), so modules are fetched by full name.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(f"solenoidlab.{module}")
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"solenoidlab was imported from {mod.__file__}, not from {SRC}")
    return mod


def default_params():
    words, periodic = lab("words"), lab("periodic")
    return words.SystemParams(2, 0.4, periodic.PeriodicFn.cosine())


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Check:
    ok: bool
    detail: str


class Workload:
    """setup(seed) -> inputs; call(inputs) -> output; check and digest the output."""

    name: str

    def cleanup(self, inp) -> None:
        """Remove what setup created."""


class FiberMC(Workload):
    """Empirical fiber measure at the generic base point, then its entropy slope."""

    name = "fiber-mc"

    def __init__(self, samples: int = 2_000_000, level: int = 16):
        self.samples = samples
        self.level = level

    def setup(self, seed: int):
        return {"params": default_params(), "x": lab("separation").GENERIC_BASE_POINT, "seed": seed}

    def call(self, inp):
        mu = lab("measures").build_mx_empirical(
            inp["params"], inp["x"], self.level, self.samples, inp["seed"]
        )
        prof = lab("entropy").dimension_estimate(mu, range(8, self.level + 1))
        return mu, prof

    def check(self, inp, out) -> Check:
        slope = out[1].slope
        # acceptance criterion 1's tolerance
        ok = abs(slope - ALPHA_2_04) <= 0.10
        return Check(ok, f"slope={slope!r} vs {ALPHA_2_04:.5f} +-0.10")

    def digest(self, out) -> str:
        mu, prof = out
        return _sha(mu.indices.tobytes(), mu.weights.tobytes(), repr(prof.entropies).encode())


class AttractorBox(Workload):
    """Box counts of streamed attractor points at levels 4..10."""

    name = "attractor-box"
    levels = range(4, 11)

    def __init__(self, points: int = 2_000_000):
        self.points = points

    def setup(self, seed: int):
        return {"params": default_params(), "seed": seed}

    def call(self, inp):
        orbit = lab("dynamics").attractor_points(inp["params"], self.points, seed=inp["seed"])
        return lab("fractal").box_count_dimension(orbit, self.levels, b=2)

    def check(self, inp, out) -> Check:
        # Oracle: regenerate the points and count distinct (floor(x b^l),
        # floor(y b^l)) pairs directly at every level.
        blocks = list(lab("dynamics").attractor_points(inp["params"], self.points, seed=inp["seed"]))
        xs = np.concatenate([xb for xb, _ in blocks])
        ys = np.concatenate([yb for _, yb in blocks])
        want = []
        for lev in self.levels:
            ix = np.floor(xs * 2.0**lev).astype(np.int64)
            iy = np.floor(ys * 2.0**lev).astype(np.int64)
            iy -= iy.min()
            want.append(len(np.unique(ix * (int(iy.max()) + 1) + iy)))
        ok = list(out.counts) == want
        return Check(ok, f"counts={list(out.counts)} oracle={want} slope={out.slope!r}")

    def digest(self, out) -> str:
        return _sha(repr((out.counts, out.slope)).encode())


class DecompositionCLI(Workload):
    """``solenoidlab decomposition-check`` at default budgets via ``cli.main``."""

    name = "decomposition-cli"

    def __init__(self, extra_args: tuple[str, ...] = ()):
        self.extra_args = extra_args

    def setup(self, seed: int):
        lab("cli")
        OUT.mkdir(exist_ok=True)
        outdir = tempfile.mkdtemp(dir=OUT)
        argv = ["decomposition-check", "--outdir", outdir, "--seed", str(seed), *self.extra_args]
        return {"argv": argv, "outdir": Path(outdir)}

    def call(self, inp):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = lab("cli").main(inp["argv"])
        summary = inp["outdir"] / "decomposition-check" / "summary.txt"
        return code, summary.read_bytes() if summary.exists() else b""

    def check(self, inp, out) -> Check:
        code, text = out
        fields = dict(
            line.split(": ", 1) for line in text.decode().splitlines() if ": " in line
        )
        if code != 0 or "residual" not in fields:
            return Check(False, f"exit code {code}, summary keys {sorted(fields)}")
        residual, budget = float(fields["residual"]), float(fields["error_budget"])
        return Check(residual <= budget, f"residual={residual!r} error_budget={budget!r}")

    def digest(self, out) -> str:
        code, text = out
        return _sha(str(code).encode(), text)

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp["outdir"], ignore_errors=True)


class SeparationScan(Workload):
    """Exponential-separation scans at seeded random base points."""

    name = "separation-scan"
    n_values = range(8, 19)

    def __init__(self, base_points: int = 40):
        self.base_points = base_points

    def setup(self, seed: int):
        xs = np.random.default_rng(seed).random(self.base_points)
        return {"params": default_params(), "xs": [float(x) for x in xs]}

    def call(self, inp):
        scan = lab("separation").exp_separation_scan
        return [scan(inp["params"], x, 4, 0.25, self.n_values) for x in inp["xs"]]

    def check(self, inp, out) -> Check:
        # acceptance criterion 6: epsilon_max > 0 and every scanned n passes
        # at 0.95 * epsilon_max
        bad = []
        for x, scan in zip(inp["xs"], out):
            eps = 0.95 * scan.epsilon_max
            passes = all(
                g > eps**nh for g, nh in zip(scan.min_gaps, scan.nhats) if math.isfinite(g)
            )
            if not (scan.epsilon_max > 0 and passes):
                bad.append(x)
        eps_med = float(np.median([s.epsilon_max for s in out]))
        return Check(not bad, f"failing base points={bad} median epsilon_max={eps_med!r}")

    def digest(self, out) -> str:
        return _sha(repr([(s.epsilon_max, s.min_gaps, s.passing) for s in out]).encode())


WORKLOADS = {w.name: w for w in (FiberMC(), AttractorBox(), DecompositionCLI(), SeparationScan())}
