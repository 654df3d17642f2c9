"""Command-line front end: experiment orchestration and report emission.

Each experiment writes its own subdirectory under the configured output
directory: a ``summary.txt`` of sorted ``key: value`` lines plus CSV tables
(and a PGM raster for renders).  Reports contain no timestamps and all
reductions are deterministic, so identical config + seed reproduces
bit-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import attractor_points  # noqa: F401 - perfbench/layers.py wraps this name
from .entropy import dimension_estimate, porosity_fraction
from .fractal import (
    attractor_box_count,
    box_count_graph,
    predicted_dimension,
    render_attractor,
    weierstrass_graph,
)
from .measures import build_mx_empirical
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
from .series import DEFAULT_CHUNK_CAP
from .words import SystemParams, max_level, nhat


@dataclass(frozen=True)
class RunConfig:
    """Serializable description of one laboratory run."""

    params: SystemParams
    experiments: tuple[str, ...]
    seed: int = 0
    budgets: dict = field(default_factory=dict)
    outdir: str = "out"

    def __post_init__(self):
        for k, v in self.budgets.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"budget {k} must be numeric")
            if not math.isfinite(v):
                raise ValueError(f"budget {k} must be finite, got {v!r}")
            if v <= 0:
                raise ValueError(f"budget {k} must be positive")

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
        doc = json.loads(text)
        sysdoc = doc["system"]
        params = SystemParams(
            b=int(sysdoc["b"]),
            gamma=float(sysdoc["gamma"]),
            phi=PeriodicFn.from_triples(sysdoc.get("phi", [])),
            truncation_tol=float(sysdoc.get("truncation_tol", 1e-9)),
        )
        return cls(
            params=params,
            experiments=tuple(doc.get("experiments", [])),
            seed=int(doc.get("seed", 0)),
            budgets={str(k): v for k, v in doc.get("budgets", {}).items()},
            outdir=str(doc.get("outdir", "out")),
        )


def default_params() -> SystemParams:
    return SystemParams(b=2, gamma=0.4, phi=PeriodicFn.cosine())


def _budget(cfg: RunConfig, key: str, default):
    v = cfg.budgets.get(key, default)
    if isinstance(default, int) and not float(v).is_integer():
        raise ValueError(f"budget {key} must be an integer, got {v!r}")
    return type(default)(v)


def _write_summary(folder: Path, summary: dict) -> None:
    lines = [f"{k}: {summary[k]}" for k in sorted(summary)]
    (folder / "summary.txt").write_text("\n".join(lines) + "\n")


def _write_rows(folder: Path, name: str, header: str, rows) -> None:
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    (folder / name).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_dim_estimate(cfg: RunConfig, folder: Path) -> dict:
    p = cfg.params
    lev_lo = _budget(cfg, "mx_level_min", 6)
    lev_hi = _budget(cfg, "mx_level_max", min(14, p.max_bin_level()))
    samples = _budget(cfg, "mx_samples", 10**6)
    mu = build_mx_empirical(p, GENERIC_BASE_POINT, lev_hi, samples, cfg.seed)
    prof = dimension_estimate(mu, range(lev_lo, lev_hi + 1))
    box_levels = range(_budget(cfg, "box_level_min", 4), _budget(cfg, "box_level_max", 8) + 1)
    box = attractor_box_count(p, _budget(cfg, "box_points", 10**6), box_levels, seed=cfg.seed)
    _write_rows(folder, "entropy_profile.csv", "level,entropy", prof.to_rows())
    _write_rows(folder, "box_counts.csv", "level,boxes", box.to_rows())
    return {
        "fiber_entropy_slope": prof.slope,
        "fiber_slope_window": prof.slope_window,
        "attractor_box_slope": box.slope,
        "predicted_dimension": predicted_dimension(p.b, p.gamma),
        "predicted_fiber_dimension": min(1.0, math.log(p.b) / math.log(1.0 / p.gamma)),
        "mx_samples": samples,
    }


def _exp_separation_scan(cfg: RunConfig, folder: Path) -> dict:
    p = cfg.params
    ell = _budget(cfg, "ell", 4)
    n_lo, n_hi = _budget(cfg, "n_min", 8), _budget(cfg, "n_max", 14)
    eps = float(cfg.budgets.get("epsilon", 0.25))
    scan = exp_separation_scan(p, GENERIC_BASE_POINT, ell, eps, range(n_lo, n_hi + 1), seed=cfg.seed)
    _write_rows(folder, "scan.csv", "n,nhat,min_gap,threshold,passed", scan.to_rows())
    return {
        "x": scan.x,
        "ell": ell,
        "epsilon": eps,
        "epsilon_max": scan.epsilon_max,
        "passing": list(scan.passing),
        "sampled_words": scan.sampled_words,
    }


def _exp_dichotomy(cfg: RunConfig, folder: Path) -> dict:
    v = condition_H_scan(
        cfg.params,
        x_grid_size=_budget(cfg, "x_grid", 64),
        word_depth=_budget(cfg, "word_depth", 12),
    )
    out = {"verdict": v.verdict, "sup_gap": v.sup_gap, "budget": v.budget}
    if v.witness_pair is not None:
        out["witness_x"] = v.witness_x
        out["witness_i"] = v.witness_pair[0].to_string()
        out["witness_j"] = v.witness_pair[1].to_string()
    if v.degeneracy_bound is not None:
        out["degeneracy_bound"] = v.degeneracy_bound
    return out


def _exp_porosity(cfg: RunConfig, folder: Path) -> dict:
    p = cfg.params
    from .measures import build_mx_exact

    word_len = _budget(cfg, "porosity_word_len", 10)
    m = _budget(cfg, "porosity_m", 6)
    k = _budget(cfg, "porosity_k", 4)
    depth = _budget(cfg, "porosity_depth", min(14, max_level(p.b, 2**23)))
    eps = float(cfg.budgets.get("porosity_eps", 0.2))
    alpha = min(1.0, math.log(p.b) / math.log(1.0 / p.gamma))
    rng = np.random.default_rng(cfg.seed)
    rows = []
    hits = 0
    n_words = _budget(cfg, "porosity_words", 8)
    for _ in range(n_words):
        code = int(rng.integers(0, p.b**word_len))
        x = (code) / float(p.b**word_len)
        mu = build_mx_exact(p, x, k + m, depth)
        rep = porosity_fraction(mu, alpha, eps, m, 1, k)
        hits += rep.verdict
        rows.append((code, rep.fraction, rep.verdict))
    _write_rows(folder, "porosity.csv", "word_code,fraction,verdict", rows)
    return {
        "alpha_reference": alpha,
        "eps": eps,
        "m": m,
        "scale_range": (1, k),
        "porous_fraction_of_words": hits / n_words,
    }


def _exp_theta_entropy(cfg: RunConfig, folder: Path) -> dict:
    p = cfg.params
    t = _budget(cfg, "theta_t", 2)
    cert = transversality_search(p, [t], grid_size=_budget(cfg, "grid_size", 1024))
    if cert is None:
        return {"certificate": "none found", "t": t}
    scan_ns = [n for n in range(8, 15) if p.b ** (nhat(n, p.b, p.gamma) - t) <= DEFAULT_CHUNK_CAP]
    if not scan_ns:
        raise ValueError(f"theta-entropy: no separation scale n in 8..14 has "
                         f"b^(nhat(n) - t) within the materialization cap {DEFAULT_CHUNK_CAP}")
    scan = exp_separation_scan(p, cert.x0, t, 0.25, scan_ns, seed=cfg.seed)
    C = separation_exponent(scan, p.b)
    n_lo, n_hi = _budget(cfg, "theta_n_min", 16), _budget(cfg, "theta_n_max", 24)
    rows = theta_entropy_table(p, cert, range(n_lo, n_hi + 1, 2), C)
    (folder / "certificate.json").write_text(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    _write_rows(
        folder,
        "theta_entropy.csv",
        "n,nhat,support,coarse,fine",
        [(r.n, r.n_hat, r.support, r.coarse, r.fine) for r in rows],
    )
    return {
        "t": t,
        "delta1": cert.delta1,
        "h": cert.h.to_string(),
        "h_prime": cert.h_prime.to_string(),
        "a": cert.a.to_string(),
        "C": C,
        "coarse_last": rows[-1].coarse,
        "fine_last": rows[-1].fine,
        "fine_limit": math.log(p.b) / math.log(1.0 / p.gamma),
    }


def _exp_decomposition(cfg: RunConfig, folder: Path) -> dict:
    rep = decomposition_check(
        cfg.params,
        n=_budget(cfg, "decomp_n", 6),
        i_level=_budget(cfg, "decomp_i", 4),
        level=_budget(cfg, "decomp_level", 6),
        budget=_budget(cfg, "decomp_budget", 1 << 16),
        seed=cfg.seed,
    )
    return {
        "residual": rep.residual,
        "error_budget": rep.error_budget,
        "n_hat": rep.n_hat,
        "i_hat": rep.i_hat,
        "atoms": rep.atoms,
    }


def _exp_render(cfg: RunConfig, folder: Path) -> dict:
    grid = render_attractor(
        cfg.params,
        resolution=_budget(cfg, "resolution", 512),
        n_points=_budget(cfg, "render_points", 10**6),
        seed=cfg.seed,
    )
    grid.to_pgm(folder / "attractor.pgm")
    return {
        "width": grid.width,
        "height": grid.height,
        "y_min": grid.y_min,
        "y_max": grid.y_max,
        "occupied_fraction": grid.occupied_fraction(),
    }


def _exp_weierstrass(cfg: RunConfig, folder: Path) -> dict:
    p = cfg.params
    lam = float(cfg.budgets.get("weierstrass_lambda", (1.0 / p.b + 1.0) / 2.0))
    lev_lo, lev_hi = _budget(cfg, "w_level_min", 4), _budget(cfg, "w_level_max", 8)
    res = _budget(cfg, "w_resolution", p.b**lev_hi * 64)
    graph = weierstrass_graph(p.phi, lam, p.b, res)
    box = box_count_graph(graph.xs, graph.ys, range(lev_lo, lev_hi + 1), b=p.b)
    _write_rows(folder, "box_counts.csv", "level,boxes", box.to_rows())
    stride = max(1, len(graph.xs) // _budget(cfg, "w_points_out", 4096))
    _write_rows(
        folder,
        "graph_points.csv",
        "x,y",
        list(zip(graph.xs[::stride].tolist(), graph.ys[::stride].tolist())),
    )
    return {
        "lambda": lam,
        "base": p.b,
        "predicted_dim": graph.predicted_dim,
        "box_slope": box.slope,
        "terms": graph.terms,
        "resolution": res,
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
    """Dispatch every configured experiment; returns their summaries."""
    unknown = [name for name in cfg.experiments if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    results: dict[str, dict] = {}
    for name in cfg.experiments:
        folder = Path(cfg.outdir) / name
        created = [p for p in (folder, *folder.parents) if not p.exists()]
        folder.mkdir(parents=True, exist_ok=True)
        try:
            summary = EXPERIMENTS[name](cfg, folder)
        except BaseException:
            # an experiment that fails before writing leaves no empty folders
            for p in created:
                if any(p.iterdir()):
                    break
                p.rmdir()
            raise
        summary = {
            **summary,
            "experiment": name,
            "seed": cfg.seed,
            "b": cfg.params.b,
            "gamma": cfg.params.gamma,
            "phi": cfg.params.phi.to_triples(),
            "truncation_tol": cfg.params.truncation_tol,
        }
        _write_summary(folder, summary)
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
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the experiment list from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON run config")
    run_p.add_argument("--outdir", default=None, help="override the output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--budget", action="append", metavar="NAME=VALUE")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON run config (default corpus system)")
        p.add_argument("--outdir", default="out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", action="append", metavar="NAME=VALUE")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            cfg = RunConfig.from_json(Path(args.config).read_text())
        else:
            cfg = RunConfig(params=default_params(), experiments=())
        overrides = _parse_budget_overrides(args.budget)
        experiments = cfg.experiments if args.command == "run" else (args.command,)
        cfg = RunConfig(
            params=cfg.params,
            experiments=experiments,
            seed=cfg.seed if getattr(args, "seed", None) is None else args.seed,
            budgets={**cfg.budgets, **overrides},
            outdir=cfg.outdir if getattr(args, "outdir", None) is None else args.outdir,
        )
        results = run_experiment(cfg)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, summary in results.items():
        print(f"[{name}]")
        for k in sorted(summary):
            print(f"  {k}: {summary[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
