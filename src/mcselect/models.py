"""Curie-Weiss Glauber chain construction and chain file ingestion.

The chain file format is a single JSON document

    {"d": int, "dims": [int, ...], "transition": [[float, ...], ...],
     "stationary": [float, ...]}        # "stationary" optional

with rows listed in the library's mixed-radix state order and floats written
with full round-trip precision, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain_core import (
    Distribution,
    ProductStateSpace,
    TransitionMatrix,
    ValidationError,
    _require_irreducible,
    _row_sums,
    stationary_distribution,
    stationary_residual,
    validate,
)

STATIONARY_FILE_TOL = 1e-6


class StationaryMismatchWarning(UserWarning):
    """The stationary vector stored in a chain file does not match P."""


@dataclass(frozen=True)
class CurieWeissParams:
    """Spin count, temperature, and external field of the Curie-Weiss chain."""

    d: int
    T: float
    h: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if not self.T > 0:
            raise ValidationError("temperature must be positive")
        if not math.isfinite(self.h):
            raise ValidationError(f"external field h must be finite, not {self.h!r}")


def _interactions(d: int) -> np.ndarray:
    idx = np.arange(d)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def hamiltonian(x, params: CurieWeissParams) -> float:
    """Energy -sum_{i,j} 2^{-|j-i|} x_i x_j - h sum_i x_i of a spin vector.

    The double sum runs over all pairs including i = j; the resulting
    constant -d cancels in the dynamics and the Gibbs weights but is part
    of the energy as written.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (params.d,):
        raise ValidationError(f"spin vector has shape {x.shape}, expected ({params.d},)")
    if not np.all(np.abs(x) == 1.0):
        raise ValidationError("spins must be +1 or -1")
    J = _interactions(params.d)
    return float(-x @ J @ x - params.h * x.sum())


def _all_energies(params: CurieWeissParams) -> np.ndarray:
    d = params.d
    n = 1 << d
    # bit 1 -> spin +1, bit 0 -> spin -1; coordinate 0 most significant
    bits = (np.arange(n)[:, None] >> (d - 1 - np.arange(d))[None, :]) & 1
    spins = 2.0 * bits - 1.0
    J = _interactions(d)
    return -np.einsum("si,ij,sj->s", spins, J, spins) - params.h * spins.sum(axis=1)


def curie_weiss_chain(params: CurieWeissParams) -> tuple[TransitionMatrix, Distribution]:
    """Single-flip Glauber dynamics targeting the Gibbs distribution.

    Off-diagonal entries are (1/d) exp(-(H(y) - H(x))_+ / T) for the d
    single-spin flips of x; the diagonal is the complement, which keeps row
    sums exact to the last ulp sum.  P is built from its d + 1 entries a
    row, with the bits the dense rows would have, and holds no n x n array
    from d = 6 on, where it is sparse.
    """
    d, T = params.d, params.T
    n = 1 << d
    energies = _all_energies(params)

    shifted = -(energies - energies.min()) / T
    weights = np.exp(shifted)
    if weights.min() == 0.0:
        state = int(np.argmin(weights))
        spins = "".join("+" if state >> (d - 1 - i) & 1 else "-" for i in range(d))
        raise ValidationError(
            f"Gibbs weight of state {state} (spins {spins}) underflows to 0 at T={T}; "
            "the stationary distribution would lose full support"
        )
    z = math.fsum(weights.tolist())
    pi = Distribution(ProductStateSpace((2,) * d), weights / z)

    # each row's targets in ascending order: the d flips and x itself
    states = np.arange(n)
    cols = np.concatenate([states[:, None] ^ (1 << (d - 1 - np.arange(d))), states[:, None]],
                          axis=1)
    cols.sort(axis=1)
    x, y = np.repeat(states, d + 1), cols.reshape(-1)
    diagonal = x == y
    p = np.exp(-np.maximum(energies[y] - energies[x], 0.0) / T) / d
    p[diagonal] = 0.0
    off = p != 0.0
    diag = 1.0 - _row_sums(x[off], y[off], p[off], n)
    if diag.min() < -1e-15:
        raise ValidationError(f"negative holding probability {diag.min()!r}")
    np.clip(diag, 0.0, None, out=diag)
    p[diagonal] = diag
    nonzero = p != 0.0

    P = TransitionMatrix._from_support(pi.space, x[nonzero], y[nonzero], p[nonzero])
    validate(P)
    return P, pi


def save_chain(path: str | Path, P: TransitionMatrix, pi: Distribution | None = None) -> None:
    space = P.space
    parts = [
        "{",
        f'"d": {space.d},',
        f'"dims": {json.dumps(list(space.dims))},',
        '"transition": [',
    ]
    body = ",\n".join("[" + ", ".join(repr(v) for v in row) + "]" for row in P.rows.tolist())
    parts.append(body)
    if pi is not None:
        parts.append("],")
        parts.append('"stationary": [' + ", ".join(repr(v) for v in pi.probs.tolist()) + "]")
    else:
        parts.append("]")
    parts.append("}")
    Path(path).write_text("\n".join(parts) + "\n")


def _numbers(path: str | Path, key: str, raw, bools: bool) -> np.ndarray:
    """The field ``key`` of a chain file, ``raw`` as parsed, as a float
    array; it must be a regular array of JSON numbers.  numpy reads a string
    or a null into a dtype that is not numeric, but a bool among numbers as
    a number, so the entries are looked at one by one only when ``bools``,
    in a file that spells out a bool."""
    try:
        values = np.array(raw)
    except ValueError as err:  # rows of different lengths
        raise ValidationError(f"chain file {path}: {key} is not a regular array: {err}") from err
    numeric = values.dtype.kind in "iuf"
    if numeric and bools:
        numeric = not any(type(v) is bool for v in np.array(raw, dtype=object).flat)
    if not numeric:
        raise ValidationError(f"chain file {path}: {key} must be an array of JSON numbers")
    return values.astype(float, copy=False)


def load_chain(path: str | Path) -> tuple[TransitionMatrix, Distribution | None]:
    """Parse, validate, and return a chain file.

    P must be irreducible, whether or not the file stores pi.  A stored
    stationary vector is checked against P; if its residual exceeds 1e-6 a
    :class:`StationaryMismatchWarning` is emitted and the vector is
    recomputed by power iteration instead.
    """
    text = Path(path).read_text()
    # scanned once, so that neither the text nor the parsed rows outlive
    # their reading: a matrix's rows as text and as Python floats take
    # several times its own bytes
    bools = "true" in text or "false" in text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"malformed chain file {path}: {err}") from err
    del text
    try:
        d, dims, rows = doc["d"], doc["dims"], doc.pop("transition")
    except (KeyError, TypeError) as err:
        raise ValidationError(f"chain file {path} is missing or corrupts a field: {err}") from err
    if type(d) is not int:
        raise ValidationError(f"chain file {path}: d must be a JSON integer, not {d!r}")
    if type(dims) is not list or any(type(n) is not int for n in dims):
        raise ValidationError(f"chain file {path}: dims must be an array of JSON integers, "
                              f"not {dims!r}")
    if len(dims) != d:
        raise ValidationError(f"chain file declares d={d} but has {len(dims)} dims")
    transition = _numbers(path, "transition", rows, bools)
    del rows
    space = ProductStateSpace(tuple(dims))
    if transition.shape != (space.total, space.total):
        raise ValidationError(
            f"transition shape {transition.shape} does not match dims (total {space.total})"
        )
    P = TransitionMatrix(space, transition)
    validate(P)
    _require_irreducible(P)

    pi: Distribution | None = None
    if "stationary" in doc:
        probs = _numbers(path, "stationary", doc["stationary"], bools)
        if probs.shape != (space.total,):
            raise ValidationError("stationary vector length does not match the state space")
        pi = Distribution(space, probs)
        residual = stationary_residual(P, pi)
        if residual > STATIONARY_FILE_TOL:
            warnings.warn(
                f"stored stationary vector has residual {residual:.3e} > {STATIONARY_FILE_TOL}; "
                "recomputing",
                StationaryMismatchWarning,
                stacklevel=2,
            )
            pi = stationary_distribution(P)
    return P, pi
