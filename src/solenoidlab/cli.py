"""Command-line front end: experiment orchestration and report emission.

Every budget an experiment reads is declared once, with its default, in
``BUDGETS``, and every (min, max) budget pair once, with the least width its
experiment needs, in ``WINDOWS``; building a ``RunConfig`` rejects an
undeclared name, a non-integral value for an integer budget or a window too
narrow for a listed experiment, before any experiment starts; reading one
from JSON also refuses a missing ``system``, ``b`` or ``gamma`` by name, a
field of the wrong JSON type (the document, ``system`` and ``budgets`` are
objects, ``experiments`` a list of strings, ``outdir`` a string, ``gamma``
and ``truncation_tol`` numbers), a non-integral base, seed or harmonic
index, and a ``phi`` entry that is not a [k, a_k, b_k] list of numbers (a
JSON bool is no number).
Each experiment returns its summary and its files (CSV tables, and a PGM
raster for renders) as bytes, and only then are they written, with a
``summary.txt`` of sorted ``key: value`` lines, to ``<outdir>/<experiment>/``:
a failed experiment leaves no folder.  Reports contain no timestamps and all
reductions are deterministic, so identical config + seed reproduces
bit-identical files.  ``run`` and the experiment subcommands share
``--outdir``, ``--seed`` and ``--budget``, which override the config file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dynamics import attractor_points
from .entropy import dimension_estimate, porosity_fraction
from .fractal import (
    box_count_dimension,
    box_count_graph,
    log_ratio,
    predicted_dimension,
    render_attractor,
    weierstrass_graph,
)
from .measures import EXACT_WORDS, build_mx_empirical, build_mx_exact
from .partitions import (
    decomposition_check,
    separation_exponent,
    theta_entropy_table,
)
from .periodic import PeriodicFn
from .separation import (
    GENERIC_BASE_POINT,
    condition_H_scan,
    exp_separation_scan,
    transversality_search,
)
from .series import check_tile, check_walk, tile_digits
from .words import SystemParams, check_draw, max_level, nhat

#: Every budget the experiments read, with its default; an integer default
#: makes an integer budget.  A callable default depends on the system or on
#: another budget and is resolved against the config.
BUDGETS = {
    "mx_samples": 10**6, "box_level_min": 4, "box_level_max": 8, "box_points": 10**6,  # dim-estimate
    "mx_level_min": 6, "mx_level_max": lambda cfg: min(14, cfg.params.max_bin_level()),
    "ell": 4, "n_min": 8, "n_max": 14, "epsilon": 0.25,  # separation-scan
    "x_grid": 64, "word_depth": 12,  # dichotomy-check
    "porosity_word_len": 10, "porosity_m": 6, "porosity_k": 4, "porosity_words": 8,  # porosity
    "porosity_depth": lambda cfg: min(14, max_level(cfg.params.b, EXACT_WORDS)), "porosity_eps": 0.2,
    "theta_t": 2, "grid_size": 1024, "theta_n_min": 16, "theta_n_max": 24,  # theta-entropy
    "decomp_n": 6, "decomp_i": 4, "decomp_level": 6,  # decomposition-check
    "resolution": 512, "render_points": 10**6,  # render
    "w_level_min": 4, "w_level_max": 8, "w_points_out": 4096,  # weierstrass
    "weierstrass_lambda": lambda cfg: (1.0 / cfg.params.b + 1.0) / 2.0,
    "w_resolution": lambda cfg: cfg.params.b ** _budget(cfg, "w_level_max") * 64,
}

#: Every (min, max) budget pair, with the least max - min its experiment
#: needs: a slope fit takes at least 3 levels, a scan or table one scale.
WINDOWS = {
    "dim-estimate": (("mx_level_min", "mx_level_max", 2), ("box_level_min", "box_level_max", 2)),
    "separation-scan": (("n_min", "n_max", 0),),
    "theta-entropy": (("theta_n_min", "theta_n_max", 0),),
    "weierstrass": (("w_level_min", "w_level_max", 2),),
}


@dataclass(frozen=True)
class RunConfig:
    """Serializable description of one laboratory run."""

    params: SystemParams
    experiments: tuple[str, ...]
    seed: int = 0
    budgets: dict = field(default_factory=dict)
    outdir: str = "out"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for k, v in self.budgets.items():
            if k not in BUDGETS:
                raise ValueError(f"unknown budget {k}: no experiment reads it")
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"budget {k} must be numeric")
            if not math.isfinite(v):
                raise ValueError(f"budget {k} must be finite, got {v!r}")
            if v <= 0:
                raise ValueError(f"budget {k} must be positive")
        for k, v in self.budgets.items():  # all finite and positive: defaults can be resolved
            if isinstance(_budget(self, k), int) and not float(v).is_integer():
                raise ValueError(f"budget {k} must be an integer, got {v!r}")
        for name in self.experiments:
            for lo, hi, width in WINDOWS.get(name, ()):
                lo_v, hi_v = _budget(self, lo), _budget(self, hi)
                if hi_v - lo_v < width:
                    raise ValueError(f"{name} needs {hi} - {lo} >= {width}, "
                                     f"got {lo}={lo_v} and {hi}={hi_v}")

    def to_json(self) -> str:
        doc = {
            "system": {
                "b": self.params.b,
                "gamma": self.params.gamma,
                "truncation_tol": self.params.truncation_tol,
                "phi": [list(t) for t in self.params.phi.to_triples()],
            },
            "experiments": list(self.experiments),
            "seed": self.seed,
            "budgets": dict(sorted(self.budgets.items())),
            "outdir": self.outdir,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = _typed("the config", json.loads(text), dict, "a JSON object")
        sysdoc = _typed("system", _required(doc, "system", "the config"), dict, "a JSON object")
        params = SystemParams(
            b=_integer("b", _required(sysdoc, "b", "system")),
            gamma=float(_typed("gamma", _required(sysdoc, "gamma", "system"), (int, float), "a number")),
            phi=PeriodicFn.from_triples(_phi_triples(sysdoc.get("phi", []))),
            truncation_tol=float(
                _typed("truncation_tol", sysdoc.get("truncation_tol", 1e-9), (int, float), "a number")
            ),
        )
        names = doc.get("experiments", [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError(f"experiments must be a list of strings, got {names!r}")
        return cls(
            params=params,
            experiments=tuple(names),
            seed=_integer("seed", doc.get("seed", 0)),
            budgets=dict(_typed("budgets", doc.get("budgets", {}), dict, "a JSON object")),
            outdir=_typed("outdir", doc.get("outdir", "out"), str, "a string"),
        )


def _required(doc: dict, name: str, where: str):
    """A config field that has no default, else refused by name."""
    if name not in doc:
        raise ValueError(f"{where} is missing the required field {name}")
    return doc[name]


def _typed(name: str, v, kind, what: str):
    """A config field of JSON type ``kind``, else refused by name (a bool is no number)."""
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError(f"{name} must be {what}, got {v!r}")
    return v


def _integer(name: str, v) -> int:
    """A config integer; a bool or a non-integral value is refused, not truncated."""
    if isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _phi_triples(entries) -> list[tuple[int, float, float]]:
    """The config's ``phi`` entries; each must be a [k, a_k, b_k] list of numbers."""
    if not isinstance(entries, list):
        raise ValueError(f"phi must be a list of [k, a_k, b_k] entries, got {entries!r}")
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, list) or len(e) != 3:
            raise ValueError(f"phi entry {i} must be a [k, a_k, b_k] list, got {e!r}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in e[1:]):
            raise ValueError(f"phi entry {i} coefficients must be numbers, got {e!r}")
        out.append((_integer("phi harmonic index", e[0]), float(e[1]), float(e[2])))
    return out


def default_params() -> SystemParams:
    return SystemParams(b=2, gamma=0.4, phi=PeriodicFn.cosine())


def _budget(cfg: RunConfig, name: str):
    """Budget ``name`` of ``cfg``: its configured value, else its declared default."""
    default = BUDGETS[name]
    if callable(default):
        default = default(cfg)
    return type(default)(cfg.budgets.get(name, default))


def _csv(header: str, rows) -> bytes:
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_dim_estimate(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    lev_lo, lev_hi = _budget(cfg, "mx_level_min"), _budget(cfg, "mx_level_max")
    samples = _budget(cfg, "mx_samples")
    mu = build_mx_empirical(p, GENERIC_BASE_POINT, lev_hi, samples, cfg.seed)
    prof = dimension_estimate(mu, range(lev_lo, lev_hi + 1))
    box_levels = range(_budget(cfg, "box_level_min"), _budget(cfg, "box_level_max") + 1)
    box = box_count_dimension(attractor_points(p, _budget(cfg, "box_points"), seed=cfg.seed), box_levels, b=p.b)
    return {
        "fiber_entropy_slope": prof.slope,
        "fiber_slope_window": (prof.levels[0], prof.levels[-1]),
        "attractor_box_slope": box.slope,
        "predicted_dimension": predicted_dimension(p.b, p.gamma),
        "predicted_fiber_dimension": min(1.0, log_ratio(p.b, p.gamma)),
        "mx_samples": samples,
    }, {
        "entropy_profile.csv": _csv("level,entropy", prof.to_rows()),
        "box_counts.csv": _csv("level,boxes", box.to_rows()),
    }


def _exp_separation_scan(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    ell, eps = _budget(cfg, "ell"), _budget(cfg, "epsilon")
    n_lo, n_hi = _budget(cfg, "n_min"), _budget(cfg, "n_max")
    for n in range(n_lo, n_hi + 1):  # a value set of b^(nhat(n) - ell) words per scale
        check_tile(p.b, nhat(n, p.b, p.gamma) - ell, f"separation-scan: scale n={n} (lower n_max={n_hi})")
    scan = exp_separation_scan(p, GENERIC_BASE_POINT, ell, eps, range(n_lo, n_hi + 1), seed=cfg.seed)
    return {
        "x": GENERIC_BASE_POINT,
        "ell": ell,
        "epsilon": eps,
        "epsilon_max": scan.epsilon_max,
        "passing": list(scan.passing),
        "sampled_words": scan.sampled_words,
    }, {"scan.csv": _csv("n,nhat,min_gap,threshold,passed", scan.to_rows())}


def _exp_dichotomy(cfg: RunConfig) -> tuple[dict, dict]:
    v = condition_H_scan(
        cfg.params,
        x_grid_size=_budget(cfg, "x_grid"),
        word_depth=_budget(cfg, "word_depth"),
    )
    out = {"verdict": v.verdict, "sup_gap": v.sup_gap, "budget": v.budget}
    if v.witness_pair is not None:
        out["witness_x"] = v.witness_x
        out["witness_i"] = v.witness_pair[0].to_string()
        out["witness_j"] = v.witness_pair[1].to_string()
    if v.degeneracy_bound is not None:
        out["degeneracy_bound"] = v.degeneracy_bound
    return out, {}


def _exp_porosity(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    word_len = _budget(cfg, "porosity_word_len")
    m, k = _budget(cfg, "porosity_m"), _budget(cfg, "porosity_k")
    depth, eps = _budget(cfg, "porosity_depth"), _budget(cfg, "porosity_eps")
    alpha = min(1.0, log_ratio(p.b, p.gamma))
    check_draw(p.b, word_len, f"porosity: porosity_word_len={word_len}")
    check_walk(p.b, depth, f"porosity: porosity_depth={depth}")
    rng = np.random.default_rng(cfg.seed)
    rows, hits = [], 0
    n_words = _budget(cfg, "porosity_words")
    for _ in range(n_words):
        code = int(rng.integers(0, p.b**word_len))
        x = (code) / float(p.b**word_len)
        mu = build_mx_exact(p, x, k + m, depth)
        rep = porosity_fraction(mu, alpha, eps, m, 1, k)
        hits += rep.verdict
        rows.append((code, rep.fraction, rep.verdict))
    return {
        "alpha_reference": alpha,
        "eps": eps,
        "m": m,
        "scale_range": (1, k),
        "porous_fraction_of_words": hits / n_words,
        "porosity_depth": depth,
        "dropped_tail_cells": p.tail_bound(depth) * p.b ** (k + m),  # the dropped tail, in level-(k+m) cells
        "vacuous": alpha + eps > 1.0,  # (1/m) H <= 1: every component counts
    }, {"porosity.csv": _csv("word_code,fraction,verdict", rows)}


def _exp_theta_entropy(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    t, n_lo, n_hi = _budget(cfg, "theta_t"), _budget(cfg, "theta_n_min"), _budget(cfg, "theta_n_max")
    for n in range(n_lo, n_hi + 1, 2):  # a table row of b^(nhat(n) - t) words per scale
        check_tile(p.b, nhat(n, p.b, p.gamma) - t, f"theta-entropy: scale n={n} (lower theta_n_max={n_hi})")
    cert = transversality_search(p, [t], grid_size=_budget(cfg, "grid_size"))
    if cert is None:
        return {"certificate": "none found", "t": t}, {}
    check_tile(p.b, nhat(8, p.b, p.gamma) - t, "theta-entropy: the first separation scale n=8")
    scan_ns = [n for n in range(8, 15) if nhat(n, p.b, p.gamma) - t <= tile_digits(p.b)]
    scan = exp_separation_scan(p, cert.x0, t, 0.25, scan_ns, seed=cfg.seed)
    C = separation_exponent(scan, p.b)
    rows = theta_entropy_table(p, cert, range(n_lo, n_hi + 1, 2), C)
    return {
        "t": t,
        "delta1": cert.delta1,
        "h": cert.h.to_string(),
        "h_prime": cert.h_prime.to_string(),
        "a": cert.a.to_string(),
        "C": C,
        "separation_scales": scan_ns,
        "coarse_last": rows[-1].coarse,
        "fine_last": rows[-1].fine,
        "fine_limit": log_ratio(p.b, p.gamma),
    }, {
        "certificate.json": json.dumps(cert.to_dict(), indent=2, sort_keys=True).encode(),
        "theta_entropy.csv": _csv(
            "n,nhat,support,coarse,fine",
            [(r.n, r.n_hat, r.support, r.coarse, r.fine) for r in rows],
        ),
    }


def _exp_decomposition(cfg: RunConfig) -> tuple[dict, dict]:
    rep = decomposition_check(
        cfg.params,
        n=_budget(cfg, "decomp_n"),
        i_level=_budget(cfg, "decomp_i"),
        level=_budget(cfg, "decomp_level"),
        seed=cfg.seed,
    )
    return {
        "residual": rep.residual,
        "error_budget": rep.error_budget,
        "n_hat": rep.n_hat,
        "i_hat": rep.i_hat,
        "atoms": rep.atoms,
    }, {}


def _exp_render(cfg: RunConfig) -> tuple[dict, dict]:
    grid = render_attractor(
        cfg.params,
        resolution=_budget(cfg, "resolution"),
        n_points=_budget(cfg, "render_points"),
        seed=cfg.seed,
    )
    return {
        "width": grid.width,
        "height": grid.height,
        "y_min": grid.y_min,
        "y_max": grid.y_max,
        "occupied_fraction": grid.occupied_fraction(),
    }, {"attractor.pgm": grid.to_pgm()}


def _exp_weierstrass(cfg: RunConfig) -> tuple[dict, dict]:
    p = cfg.params
    lam = _budget(cfg, "weierstrass_lambda")
    lev_lo, lev_hi = _budget(cfg, "w_level_min"), _budget(cfg, "w_level_max")
    res = _budget(cfg, "w_resolution")
    graph = weierstrass_graph(p.phi, lam, p.b, res)
    box = box_count_graph(graph.xs, graph.ys, range(lev_lo, lev_hi + 1), b=p.b)
    stride = max(1, len(graph.xs) // _budget(cfg, "w_points_out"))
    points = list(zip(graph.xs[::stride].tolist(), graph.ys[::stride].tolist()))
    return {
        "lambda": lam,
        "base": p.b,
        "predicted_dim": graph.predicted_dim,
        "box_slope": box.slope,
        "terms": graph.terms,
        "resolution": res,
    }, {
        "box_counts.csv": _csv("level,boxes", box.to_rows()),
        "graph_points.csv": _csv("x,y", points),
    }


EXPERIMENTS = {
    "dim-estimate": _exp_dim_estimate,
    "separation-scan": _exp_separation_scan,
    "dichotomy-check": _exp_dichotomy,
    "porosity": _exp_porosity,
    "theta-entropy": _exp_theta_entropy,
    "decomposition-check": _exp_decomposition,
    "render": _exp_render,
    "weierstrass": _exp_weierstrass,
}


def run_experiment(cfg: RunConfig) -> dict[str, dict]:
    """Run every configured experiment, write its files once it returns; returns the summaries."""
    unknown = [name for name in cfg.experiments if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    results: dict[str, dict] = {}
    for name in cfg.experiments:
        summary, files = EXPERIMENTS[name](cfg)
        summary = {
            **summary,
            "experiment": name,
            "seed": cfg.seed,
            "b": cfg.params.b,
            "gamma": cfg.params.gamma,
            "phi": cfg.params.phi.to_triples(),
            "truncation_tol": cfg.params.truncation_tol,
        }
        files["summary.txt"] = "".join(f"{k}: {summary[k]}\n" for k in sorted(summary)).encode()
        folder = Path(cfg.outdir) / name
        folder.mkdir(parents=True, exist_ok=True)
        for file_name, data in files.items():
            (folder / file_name).write_bytes(data)
        results[name] = summary
    return results


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_budget_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"budget override must look like name=value: {pair!r}")
        k, v = pair.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            try:
                out[k] = float(v)
            except ValueError:
                raise ValueError(f"budget {k} must be numeric, got {v!r}") from None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="solenoidlab",
        description="Numerical laboratory for skew-product solenoidal attractors.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--outdir", default=None, help="output directory (overrides the config)")
    shared.add_argument("--seed", type=int, default=None, help="seed (overrides the config)")
    shared.add_argument("--budget", action="append", metavar="NAME=VALUE", help="budget override")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[shared], help="run the experiment list from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON run config")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, parents=[shared], help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON run config (default corpus system)")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            cfg = RunConfig.from_json(Path(args.config).read_text())
        else:
            cfg = RunConfig(params=default_params(), experiments=())
        cfg = replace(
            cfg,
            experiments=cfg.experiments if args.command == "run" else (args.command,),
            seed=cfg.seed if args.seed is None else args.seed,
            budgets={**cfg.budgets, **_parse_budget_overrides(args.budget)},
            outdir=cfg.outdir if args.outdir is None else args.outdir,
        )
        results = run_experiment(cfg)
    except (ValueError, OSError, KeyError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, summary in results.items():
        print(f"[{name}]")
        for k in sorted(summary):
            print(f"  {k}: {summary[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
