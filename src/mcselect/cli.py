"""Experiment harness: subset/partition selection sweeps, the leave-one-out
MCMC mixing study, and chain-file validation.

Subcommands
-----------
select    one CSV row per cardinality m with the chosen coordinates and the
          re-evaluated objective value ("problem" picks the catalog entry,
          "algorithm" the search procedure)
mcmc      leave-one-out mixing curves, the slowest-coordinate split, and the
          factorized-sampler comparison
validate  structural checks and stationary residual of a chain file

Exit codes: 2 flag/usage errors, 3 model or file errors, 4 guard violations.
Coordinates are printed 1-based to match the experiment tables; CSV output
is deterministic byte-for-byte for fixed flags and seed (timings go to the
JSON sidecar, not the CSV).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from . import functionals, models, objectives, optimizers
from .chain_core import (
    ConvergenceError,
    Distribution,
    GuardError,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    edge_measure,
    marginalize,
    matrix_power,
    stationary_distribution,
    stationary_residual,
    worst_case_tv,
)
from .objectives import Partition

EXIT_MODEL = 3
EXIT_GUARD = 4

DRIFT_TOL = 1e-9

# algorithm -> (the problem kind it searches, run(dec, m, epsilon, batch_plan))
ALGORITHMS = {
    "greedy": ("subset", lambda dec, m, epsilon, plan: optimizers.greedy(
        dec.f, dec.ground, m, dec.constraint)),
    "distorted": ("subset", lambda dec, m, epsilon, plan: optimizers.distorted_greedy(dec, m)),
    "gen-distorted": ("partition", lambda dec, m, epsilon, plan: (
        optimizers.generalized_distorted_greedy(dec, m))),
    "local-search": ("subset", lambda dec, m, epsilon, plan: optimizers.local_search(
        dec.f, dec.ground, epsilon)),
    "batch": ("subset", lambda dec, m, epsilon, plan: optimizers.batch_greedy(
        dec.f, dec.ground, m, plan)),
}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def parse_coords(text: str, d: int) -> SubsetMask:
    """Parse a 1-based comma-separated coordinate list like "1,2,3"."""
    text = text.strip()
    if not text:
        return SubsetMask.empty(d)
    try:
        labels = [int(tok) for tok in text.split(",")]
    except ValueError as err:
        raise click.UsageError(f"bad coordinate list {text!r}: {err}") from err
    if any(not 1 <= lab <= d for lab in labels):
        raise click.UsageError(f"coordinates in {text!r} must lie in 1..{d}")
    return SubsetMask.of(d, (lab - 1 for lab in labels))


def parse_ceiling(text: str, d: int) -> tuple[SubsetMask, ...]:
    """Parse a partition ceiling like "1,2,3,4|5,6,7|8,9,10"."""
    groups = [parse_coords(part, d) for part in text.split("|")]
    if not all(groups):
        raise click.UsageError(f"--V {text!r} has an empty group")
    try:
        Partition(tuple(groups))
    except ValidationError as err:
        raise click.UsageError(str(err)) from err
    return tuple(groups)


def format_subset(mask: SubsetMask) -> str:
    return ";".join(str(i + 1) for i in mask)


def _batch_plan(spec: str, m: int) -> list[int]:
    if spec == "ones":
        return [1] * m
    if spec == "pairs":
        if m == 0:
            return []
        sizes = [2] * (m // 2)
        if m % 2:
            sizes.append(1)
        return sizes
    try:
        sizes = [int(tok) for tok in spec.split(",")]
    except ValueError as err:
        raise click.UsageError(f"bad batch sizes {spec!r}: {err}") from err
    optimizers.check_batch_sizes(sizes, m)
    return sizes


def _plan(dec: objectives.ObjectiveDecomposition, algorithm: str, ms: Sequence[int],
          epsilon: float, batch_spec: str) -> list[tuple[int, list[int] | None]]:
    """Check every flag of a sweep before its first search and return the
    (m, batch plan) of each row.  Local search takes no budget: one row,
    labelled with the first m, so no sweep, and no entry with an exact
    cardinality."""
    kind = ALGORITHMS[algorithm][0]
    if dec.kind != kind:
        raise click.UsageError(
            f"--algorithm {algorithm} applies to {kind} problems, not {dec.problem_id}")
    if algorithm == "local-search" and dec.constraint == "eq":
        raise click.UsageError(
            f"--algorithm local-search takes no cardinality, but {dec.problem_id} "
            "needs exactly m coordinates")
    if algorithm == "batch":
        base = dec.f(dec.empty_solution())
        if abs(base) > 1e-9:
            raise click.UsageError(
                f"--algorithm batch needs f(empty) = 0, but {dec.problem_id} has "
                f"f(empty) = {base!r}")
    if not ms:
        shown = f"{ms.start}..{ms.stop - 1}" if isinstance(ms, range) else "[]"
        raise click.UsageError(f"empty m range {shown}")
    if algorithm == "local-search":
        if len(ms) > 1:
            raise click.UsageError(
                "--m-max: local search takes no budget and gives one row, not a sweep "
                f"over m={ms[0]}..{ms[-1]}")
        if not 0 < epsilon < math.inf:
            raise click.UsageError(f"--epsilon must be positive and finite, not {epsilon!r}")
        if ms[0] < 0:  # the row's label, and the certificate's |S| <= m
            raise click.UsageError(f"--m must be non-negative, not {ms[0]}")
        return [(ms[0], None)]
    try:
        for m in ms:
            dec.validate_m(m)
        return [(m, _batch_plan(batch_spec, m) if algorithm == "batch" else None) for m in ms]
    except ValidationError as err:
        raise click.UsageError(str(err)) from err


@contextmanager
def exit_codes(prefix: str = "model error"):
    """The one place errors become exit codes: model and file errors exit 3
    with ``prefix``, guard violations exit 4; usage errors pass through."""
    try:
        yield
    except (ValidationError, ConvergenceError, OSError) as err:
        click.echo(f"{prefix}: {err}", err=True)
        sys.exit(EXIT_MODEL)
    except GuardError as err:
        click.echo(f"guard violation: {err}", err=True)
        sys.exit(EXIT_GUARD)


def _finite_field(field: float) -> None:
    if not math.isfinite(field):
        raise click.UsageError(f"--h must be finite, not {field!r}")


def _load_model(model, chain_file, d, temperature, field):
    if model == "curie-weiss":
        params = models.CurieWeissParams(d=d, T=temperature, h=field)
        return models.curie_weiss_chain(params)
    if chain_file is None:
        raise click.UsageError("--model file needs --chain-file")
    P, pi = models.load_chain(chain_file)
    if pi is None:
        pi = stationary_distribution(P)
    return P, pi


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text)


def svg_line_chart(series: dict[str, list[tuple[float, float]]], title: str, path: str) -> None:
    """Minimal deterministic SVG polyline chart over (x, y) series."""
    width, height, pad = 640, 420, 50.0
    points = [p for pts in series.values() for p in pts]
    if not points:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(min(ys), 0.0), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    sy = lambda y: height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2",
               "#7f7f7f", "#bcbd22", "#17becf"]
    lines = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<text x='{width / 2:.1f}' y='20' text-anchor='middle' font-size='14'>{title}</text>",
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' y2='{height - pad}' stroke='black'/>",
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' stroke='black'/>",
    ]
    for idx, (label, pts) in enumerate(sorted(series.items())):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        lines.append(f"<polyline fill='none' stroke='{color}' points='{coords}'/>")
        lx, ly = pts[-1]
        lines.append(
            f"<text x='{sx(lx) + 4:.2f}' y='{sy(ly):.2f}' font-size='11' fill='{color}'>{label}</text>"
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True, slots=True)
class SelectionRow:
    m: int
    chosen: object
    value: float
    seconds: float
    trajectory: tuple
    certificate: optimizers.Certificate | None


def run_selection(
    dec: objectives.ObjectiveDecomposition,
    algorithm: str,
    ms: Sequence[int],
    *,
    epsilon: float = 0.1,
    batch_spec: str = "ones",
    oracle: bool = False,
) -> list[SelectionRow]:
    """Run one algorithm over a range of cardinalities against one catalog
    entry, re-evaluating every reported value through the direct functional
    definitions (never the optimizer's incremental bookkeeping).  Every
    flag is checked, as a usage error, before the first search runs."""
    if algorithm not in ALGORITHMS:
        raise click.UsageError(f"unknown algorithm {algorithm!r}")
    search = ALGORITHMS[algorithm][1]
    rows: list[SelectionRow] = []
    plan = _plan(dec, algorithm, ms, epsilon, batch_spec)
    # one optimum table per sweep: each candidate's g - c is evaluated once
    table = optimizers.optimum_table(dec) if oracle else None
    for m, batches in plan:
        start = time.perf_counter()
        result = search(dec, m, epsilon, batches)
        certificate = optimizers.certify(dec, m, result, table) if oracle else None
        elapsed = time.perf_counter() - start

        chosen = result.chosen
        parts = chosen.parts if isinstance(chosen, Partition) else chosen
        direct = dec.report_sign * dec.f_direct(parts)
        fast = dec.report_value(parts)
        if abs(direct - fast) > DRIFT_TOL:
            raise ValidationError(
                f"objective drift {abs(direct - fast):.3e} between direct and "
                f"cached evaluation at m={m}"
            )
        rows.append(SelectionRow(m, chosen, direct, elapsed, result.trajectory, certificate))
    return rows


def selection_csv(dec: objectives.ObjectiveDecomposition, rows: list[SelectionRow]) -> str:
    subset = dec.kind == "subset"
    header = "subset" if subset else ",".join(f"part{j + 1}" for j in range(len(dec.ceiling)))
    lines = [f"m,{header},value"]
    for row in rows:
        parts = ",".join(format_subset(p) for p in ((row.chosen,) if subset else row.chosen.parts))
        lines.append(f"{row.m},{parts},{_fmt(row.value)}")
    return "\n".join(lines) + "\n"


def _labels(solution) -> list:
    """Sorted 1-based labels of a subset, or of each part of a partition."""
    if isinstance(solution, Partition):
        solution = solution.parts
    if isinstance(solution, tuple):
        return [_labels(part) for part in solution]
    return sorted(i + 1 for i in solution)


def selection_sidecar(dec, rows: list[SelectionRow]) -> dict:
    payload = {"problem": dec.problem_id, "constraint": dec.constraint, "beta": dec.beta,
               "notes": list(dec.notes), "rows": []}
    for row in rows:
        entry = {
            "m": row.m,
            "value": row.value,
            "seconds": row.seconds,
            "trajectory": [dataclasses.asdict(step) for step in row.trajectory],
            "parts" if isinstance(row.chosen, Partition) else "subset": _labels(row.chosen),
        }
        if row.certificate is not None:
            cert = row.certificate
            entry["certificate"] = dataclasses.asdict(
                dataclasses.replace(cert, opt=_labels(cert.opt)))
        payload["rows"].append(entry)
    return payload


@dataclass(frozen=True)
class MixingStudy:
    d: int
    n_max: int
    curves: dict[int, list[float]]  # 0-based coordinate -> tv at n = 1..n_max
    distances: dict[int, float]  # D(P_-i || Pi_-i)
    i_star: int  # 0-based
    tv_original: float
    tv_factorized: float
    sample_tv: dict[str, list[float]] | None = None


def _step(cumulative: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One inverse-CDF step of every sample: sample t moves from states[t]
    to the first y with u[t] <= cumulative[states[t], y].  One search per
    occupied state, over the samples that sit in it."""
    order = np.argsort(states, kind="stable")
    occupied, starts = np.unique(states[order], return_index=True)
    moved = np.empty_like(states)
    for s, group in zip(occupied, np.split(order, starts[1:])):
        moved[group] = np.searchsorted(cumulative[s], u[group])
    return moved


def mcmc_study(
    chain: tuple[TransitionMatrix, Distribution],
    n_max: int = 10,
    split: int | None = None,
    samples: int = 0,
    seed: int = 0,
) -> MixingStudy:
    """Leave-one-out mixing analysis and the factorized-sampler comparison.

    For each coordinate i the worst-case total variation of (P_-i)^n to the
    projected stationary law is traced for n = 1..n_max; the split i* is the
    coordinate whose leave-one-out chain is closest to stationarity in KL,
    and the factorized kernel (P_-i*)^n x (P_i*)^n is compared against the
    full stationary law at n = n_max.
    """
    P, pi = chain
    d = P.space.d
    functionals.assert_stationary(P, pi)
    edge = edge_measure(P, pi)
    curves: dict[int, list[float]] = {}
    distances: dict[int, float] = {}
    for i in range(d):
        keep = SubsetMask.of(d, (i,)).complement()
        P_minus = edge.keep_in(keep)
        pi_minus = marginalize(pi, keep)
        distances[i] = functionals.kl_to_stationary(edge, keep)
        tvs = []
        rows = P_minus.rows
        power = np.eye(rows.shape[0])
        for _ in range(n_max):
            power = power @ rows
            tvs.append(float(np.abs(power - pi_minus.probs[None, :]).sum(axis=1).max() / 2.0))
        curves[i] = tvs

    i_star = min(range(d), key=lambda i: (distances[i], i)) if split is None else split
    keep = SubsetMask.of(d, (i_star,)).complement()
    P_minus = edge.keep_in(keep)
    P_single = edge.keep_in(SubsetMask.of(d, (i_star,)))
    tv_original = worst_case_tv(P, pi, n_max)
    # the factorized kernel P_-i* x P_i*, read in P's coordinate order
    codes = functionals.block_codes(P.space.dims, [keep.indices(), (i_star,)])
    grid = np.arange(P.space.total)
    x, y = grid[:, None], grid[None, :]
    powered = [matrix_power(P_minus, n_max), matrix_power(P_single, n_max)]
    aligned = functionals.product_at(powered, codes, x, y)
    tv_factorized = float(np.abs(aligned - pi.probs[None, :]).sum(axis=1).max() / 2.0)

    sample_tv = None
    if samples > 0:
        factor_step = functionals.product_at([P_minus, P_single], codes, x, y)
        rng = np.random.Generator(np.random.Philox(seed))
        sample_tv = {}
        for label, kernel in (("original", P.rows), ("factorized", factor_step)):
            states = np.zeros(samples, dtype=int)
            cumulative = np.cumsum(kernel, axis=1)
            for _ in range(n_max):
                u = rng.random(samples)
                states = _step(cumulative, states, u)
            counts = np.bincount(states, minlength=P.space.total) / samples
            sample_tv[label] = [float(np.abs(counts - pi.probs).sum() / 2.0)]
    return MixingStudy(d, n_max, curves, distances, i_star, tv_original, tv_factorized, sample_tv)


def mixing_csv(study: MixingStudy) -> str:
    lines = ["coordinate,n,tv_x1000"]
    for i in sorted(study.curves):
        for n, tv in enumerate(study.curves[i], start=1):
            lines.append(f"{i + 1},{n},{_fmt(1000.0 * tv)}")
    return "\n".join(lines) + "\n"


@click.group()
def main() -> None:
    """Coordinate subset and partition selection for multivariate Markov
    chains under information-theoretic criteria."""


@main.command("select")
@click.option("--problem", required=True,
              type=click.Choice(objectives.SUBSET_PROBLEMS + objectives.PARTITION_PROBLEMS))
@click.option("--model", type=click.Choice(["curie-weiss", "file"]), default="curie-weiss",
              show_default=True)
@click.option("--chain-file", type=click.Path(), default=None,
              help="Chain JSON file when --model file.")
@click.option("--d", type=int, default=10, show_default=True)
@click.option("--T", "temperature", type=float, default=10.0, show_default=True)
@click.option("--h", "field", type=float, default=1.0, show_default=True)
@click.option("--algorithm", type=click.Choice(tuple(ALGORITHMS)), default="greedy",
              show_default=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--m-max", type=int, default=None, help="Sweep m..m-max inclusive.")
@click.option("--V", "ceiling_spec", default=None,
              help='Partition ceiling, e.g. "1,2,3,4|5,6,7|8,9,10" (1-based).')
@click.option("--W", "fixed_spec", default=None,
              help='Fixed coordinate block for dist2fact-fixed, e.g. "1,2,3".')
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@click.option("--batch-sizes", default="ones", show_default=True,
              help='Batch plan: "ones", "pairs", or literal sizes like "2,2,1".')
@click.option("--heuristic", is_flag=True,
              help="Permit product-form-only objectives on non-product chains (no guarantee).")
@click.option("--block-order", is_flag=True,
              help="dist2fact/k-dist2fact: index the factorized reference kernel "
                   "in block order (selected blocks first, remainder last) instead "
                   "of realigning it to the original coordinate order.")
@click.option("--oracle", is_flag=True, help="Attach brute-force bound certificates.")
@click.option("--out", type=click.Path(), default=None, help="CSV output path (default stdout).")
@click.option("--svg", type=click.Path(), default=None, help="Optional SVG chart path.")
def cmd_select(problem, model, chain_file, d, temperature, field, algorithm, m, m_max,
               ceiling_spec, fixed_spec, epsilon, batch_sizes, heuristic, block_order,
               oracle, out, svg) -> None:
    """Select coordinate subsets or partitions over a range of budgets."""
    if oracle and out is None:
        raise click.UsageError("--oracle needs --out: the certificates go to a JSON "
                               "file beside the CSV")
    try:
        objectives.check_block_order(problem, block_order)
    except ValidationError as err:
        raise click.UsageError(f"--block-order: {err}") from err
    if ceiling_spec is not None and problem not in objectives.PARTITION_PROBLEMS:
        raise click.UsageError(f"--V: {problem} takes no partition ceiling; the k- problems do")
    if fixed_spec is not None and problem != "dist2fact-fixed":
        raise click.UsageError(f"--W: {problem} takes no fixed block; dist2fact-fixed does")
    _finite_field(field)
    with exit_codes():
        P, pi = _load_model(model, chain_file, d, temperature, field)
        d = P.space.d
        if problem in objectives.PARTITION_PROBLEMS:
            if ceiling_spec is None:
                raise click.UsageError(f"problem {problem} needs --V")
            caps = parse_ceiling(ceiling_spec, d)
            dec = objectives.build_partition_objective(
                problem, P, pi, caps, heuristic=heuristic, block_order=block_order)
        elif problem == "dist2fact-fixed":
            if fixed_spec is None:
                raise click.UsageError("dist2fact-fixed needs --W")
            dec = objectives.build_subset_objective(
                problem, P, pi, W=parse_coords(fixed_spec, d), heuristic=heuristic,
                block_order=block_order)
        else:
            dec = objectives.build_subset_objective(
                problem, P, pi, heuristic=heuristic, block_order=block_order)

        ms = range(m, (m_max if m_max is not None else m) + 1)
        rows = run_selection(dec, algorithm, ms, epsilon=epsilon,
                             batch_spec=batch_sizes, oracle=oracle)

        _write_text(out, selection_csv(dec, rows))
        if oracle:
            sidecar = Path(out).with_suffix(Path(out).suffix + ".json")
            sidecar.write_text(json.dumps(selection_sidecar(dec, rows), indent=1) + "\n")
        if svg is not None:
            pts = [(float(row.m), row.value) for row in rows]
            svg_line_chart({f"{problem}/{algorithm}": pts}, f"{problem} ({algorithm})", svg)
        for note in dec.notes:
            click.echo(f"note: {note}", err=True)


@main.command("mcmc")
@click.option("--d", type=int, default=8, show_default=True)
@click.option("--T", "temperature", type=float, default=10.0, show_default=True)
@click.option("--h", "field", type=float, default=1.0, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--split", type=int, default=None,
              help="Override the split coordinate (1-based); default argmin distance.")
@click.option("--samples", type=int, default=0, show_default=True,
              help="If positive, run the seeded empirical-CDF comparison.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Curve CSV path (default stdout).")
@click.option("--json", "json_out", type=click.Path(), default=None, help="Summary JSON path.")
@click.option("--svg", type=click.Path(), default=None, help="Optional SVG chart path.")
def cmd_mcmc(d, temperature, field, n_max, split, samples, seed, out, json_out, svg) -> None:
    """Leave-one-out mixing study and factorized-sampler comparison."""
    if split is not None and not 1 <= split <= d:
        raise click.UsageError(f"--split {split} must lie in 1..{d}")
    if n_max < 0:
        raise click.UsageError(f"--n-max must be >= 0, got {n_max}")
    if samples < 0:
        raise click.UsageError(f"--samples must be >= 0, got {samples}")
    _finite_field(field)
    with exit_codes():
        chain = models.curie_weiss_chain(models.CurieWeissParams(d=d, T=temperature, h=field))
        study = mcmc_study(chain, n_max=n_max,
                           split=None if split is None else split - 1,
                           samples=samples, seed=seed)
        _write_text(out, mixing_csv(study))
        summary = {
            "i_star": study.i_star + 1,
            "distance_to_stationarity": {str(i + 1): study.distances[i]
                                         for i in sorted(study.distances)},
            "n": study.n_max,
            "worst_tv_original": study.tv_original,
            "worst_tv_factorized": study.tv_factorized,
        }
        if study.sample_tv is not None:
            summary["empirical_tv"] = study.sample_tv
        if json_out is not None:
            Path(json_out).write_text(json.dumps(summary, indent=1) + "\n")
        click.echo(
            f"i* = {study.i_star + 1}; worst-case TV at n={study.n_max}: "
            f"original {study.tv_original:.4f}, factorized {study.tv_factorized:.4f}",
            err=out is None,
        )
        if svg is not None:
            series = {f"coord {i + 1}": [(float(n), 1000.0 * tv)
                                         for n, tv in enumerate(study.curves[i], 1)]
                      for i in study.curves}
            svg_line_chart(series, "leave-one-out mixing (1000 x TV)", svg)


@main.command("validate")
@click.argument("chain_file", type=click.Path())
def cmd_validate(chain_file) -> None:
    """Validate a chain file and report its stationary residual."""
    with exit_codes("invalid chain file"):
        P, pi = models.load_chain(chain_file)  # validates P and a stored pi
        source = "from file"
        if pi is None:
            pi, source = stationary_distribution(P), "recomputed"
    click.echo(
        f"ok: {P.space.d} coordinates, {P.space.total} states, "
        f"stationary {source}, residual {stationary_residual(P, pi):.3e}"
    )


if __name__ == "__main__":
    main()
