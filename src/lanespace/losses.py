"""Training mathematics as gradient-checked numerics.

Weighted cross-entropy with inverse-log-frequency class weights and the
two-task total loss in log-sigma parametrization. All gradients are
closed-form; no autodiff involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

FD_STEP = 1e-6


def enet_weights(probabilities: np.ndarray, k: float = 1.02) -> np.ndarray:
    """w_c = 1 / ln(k + p_c). k must exceed 1 so the weight stays finite at p=0."""
    p = np.asarray(probabilities, dtype=np.float64)
    if not k > 1.0:
        raise ValueError(f"k must be > 1, got {k}")
    if p.ndim != 1 or len(p) == 0 or (p < 0).any() or (p > 1).any():
        raise ValueError("probabilities must be a non-empty vector in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    return 1.0 / np.log(k + p)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


def weighted_ce(logits: np.ndarray, target: int, weights: np.ndarray) -> float:
    """-w_target * ln softmax(logits)[target], stabilized by max-logit shift."""
    z = np.asarray(logits, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if z.ndim != 1 or not np.isfinite(z).all():
        raise ValueError("logits must be a finite vector")
    if not 0 <= target < len(z):
        raise ValueError(f"target {target} out of range for {len(z)} classes")
    return float(-w[target] * _log_softmax(z)[target])


def weighted_ce_grad(logits: np.ndarray, target: int, weights: np.ndarray) -> np.ndarray:
    """d loss / d logits = w_target * (softmax(logits) - onehot(target))."""
    z = np.asarray(logits, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    p = np.exp(_log_softmax(z))
    g = w[target] * p
    g[target] -= w[target]
    return g


@dataclass(frozen=True)
class LossTerms:
    """Per-task losses: segmentation (l_seg) and road classification (l_cls)."""

    l_seg: float
    l_cls: float

    def __post_init__(self) -> None:
        for name in ("l_seg", "l_cls"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class UncertaintyParams:
    """Log standard deviations, one per task; zero means unit variance."""

    s_seg: float = 0.0
    s_cls: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.s_seg) and np.isfinite(self.s_cls)):
            raise ValueError("log-sigma parameters must be finite")


def total_loss(terms: LossTerms, params: UncertaintyParams) -> float:
    """exp(-2 s_seg) l_seg + exp(-2 s_cls) l_cls + s_seg + s_cls."""
    return float(
        np.exp(-2.0 * params.s_seg) * terms.l_seg
        + np.exp(-2.0 * params.s_cls) * terms.l_cls
        + params.s_seg
        + params.s_cls
    )


def total_loss_grad(terms: LossTerms, params: UncertaintyParams) -> tuple[float, float]:
    """(d/ds_seg, d/ds_cls) of total_loss."""
    return (
        float(-2.0 * np.exp(-2.0 * params.s_seg) * terms.l_seg + 1.0),
        float(-2.0 * np.exp(-2.0 * params.s_cls) * terms.l_cls + 1.0),
    )


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    f = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    return float(np.abs(a - f).max() / max(1.0, np.abs(f).max()))


def _central_difference(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / 2h for each coordinate i, h = FD_STEP."""
    fd = np.empty(len(x))
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += FD_STEP
        down[i] -= FD_STEP
        fd[i] = (f(up) - f(down)) / (2 * FD_STEP)
    return fd


def check_gradients(cases: int = 1000, seed: int = 0) -> dict[str, Any]:
    """Compare every analytic gradient against central finite differences.

    Returns the maximum relative error per operation over `cases` random
    configurations, measured as max|analytic - fd| / max(1, max|fd|).
    """
    rng = np.random.default_rng(seed)
    worst_ce = 0.0
    for _ in range(cases):
        m = int(rng.integers(2, 7))
        logits = rng.normal(0.0, 3.0, m)
        target = int(rng.integers(m))
        p = rng.dirichlet(np.ones(m))
        w = enet_weights(p, 1.02)
        fd = _central_difference(lambda z: weighted_ce(z, target, w), logits)
        worst_ce = max(worst_ce, _rel_error(weighted_ce_grad(logits, target, w), fd))

    worst_total = 0.0
    for _ in range(cases):
        terms = LossTerms(float(rng.uniform(0.01, 5.0)), float(rng.uniform(0.01, 5.0)))
        params = UncertaintyParams(
            float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))
        )
        fd = _central_difference(
            lambda s: total_loss(terms, UncertaintyParams(float(s[0]), float(s[1]))),
            np.array([params.s_seg, params.s_cls]),
        )
        worst_total = max(worst_total, _rel_error(total_loss_grad(terms, params), fd))
    return {
        "cases": cases,
        "seed": seed,
        "fd_step": FD_STEP,
        "max_rel_error": {
            "weighted_ce_grad": worst_ce,
            "total_loss_grad": worst_total,
        },
    }
