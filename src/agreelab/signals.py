"""Finite signal models and their information-theoretic summaries.

A :class:`SignalModel` holds two probability vectors over one finite alphabet,
one per state of the world.  Probabilities are exact :class:`~fractions.Fraction`
weights so that posterior-versus-one-half comparisons can be decided without
rounding; log-likelihood ratios and divergences are ordinary floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    NonInformativeModelError,
    NonInformativeTruncationError,
    UnknownSymbolError,
)


def as_weight(value) -> Fraction:
    """Coerce ints, 'num/den' strings, floats and Fractions to an exact Fraction.

    Floats map to their exact binary value, which keeps all downstream
    arithmetic exact even when the modelled quantity is irrational; an
    infinite or NaN float is a ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"cannot interpret {value!r} as a probability weight")
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a probability weight")


@dataclass(frozen=True)
class SignalModel:
    """Finite signal alphabet with one exact weight vector per state.

    Invariants enforced at construction: both vectors sum to exactly one, are
    non-negative, put positive weight on exactly the same symbols (mutual
    absolute continuity, so every in-support log-likelihood ratio is finite)
    and differ somewhere (informativeness).
    """

    alphabet: tuple
    mu0: tuple[Fraction, ...]
    mu1: tuple[Fraction, ...]

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        mu0 = tuple(as_weight(w) for w in self.mu0)
        mu1 = tuple(as_weight(w) for w in self.mu1)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)
        if len(alphabet) != len(mu0) or len(alphabet) != len(mu1):
            raise ValueError("alphabet and weight vectors must have equal length")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be distinct")
        for mu in (mu0, mu1):
            if any(w < 0 for w in mu):
                raise ValueError("weights must be non-negative")
            if sum(mu) != 1:
                raise ValueError("weights must sum to exactly 1")
        for w0, w1 in zip(mu0, mu1):
            if (w0 == 0) != (w1 == 0):
                raise AbsoluteContinuityError(
                    "mu0 and mu1 must vanish on exactly the same symbols"
                )
        if mu0 == mu1:
            raise NonInformativeModelError("mu0 and mu1 must differ")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(alphabet)})
        # The symbols of positive weight, in alphabet order.
        object.__setattr__(self, "support", tuple(s for s, w in zip(alphabet, mu0) if w > 0))

    def _position(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol) from None

    def weight(self, state: int, symbol) -> Fraction:
        """Probability of ``symbol`` conditioned on the state being ``state``, 0 or 1."""
        if state not in (0, 1):
            raise ValueError(f"state must be 0 or 1, got {state!r}")
        i = self._position(symbol)
        return self.mu1[i] if state == 1 else self.mu0[i]

    @staticmethod
    def binary(accuracy) -> "SignalModel":
        """Symmetric binary model: the signal equals the state w.p. ``accuracy``."""
        p = as_weight(accuracy)
        if not 0 < p < 1:
            raise ValueError("accuracy must lie strictly between 0 and 1")
        if p == Fraction(1, 2):
            raise NonInformativeModelError("accuracy 1/2 carries no information")
        return SignalModel(alphabet=(0, 1), mu0=(p, 1 - p), mu1=(1 - p, p))

    @staticmethod
    def from_config(data: dict) -> "SignalModel":
        return SignalModel(
            alphabet=tuple(data["alphabet"]),
            mu0=tuple(Fraction(w) for w in data["mu0"]),
            mu1=tuple(Fraction(w) for w in data["mu1"]),
        )


def log_likelihood_ratio(model: SignalModel, symbol) -> float:
    """log(mu1(symbol) / mu0(symbol)) in nats."""
    i = model._position(symbol)
    w0, w1 = model.mu0[i], model.mu1[i]
    if w0 == 0 or w1 == 0:
        raise AbsoluteContinuityError(
            f"symbol {symbol!r} has zero weight; log-likelihood ratio undefined"
        )
    ratio = w1 / w0
    return math.log(ratio.numerator) - math.log(ratio.denominator)


def belief_from_llr(z):
    """Posterior probability of state 1 under a uniform prior, e^z / (1 + e^z).

    Strictly increasing, maps 0 to exactly one half and satisfies
    belief_from_llr(z) + belief_from_llr(-z) == 1.  Elementwise on arrays;
    a scalar gives a float.
    """
    e = np.exp(-np.abs(z))
    belief = np.where(np.asarray(z) >= 0, 1.0, e) / (1.0 + e)
    return float(belief) if np.ndim(belief) == 0 else belief


def private_belief(model: SignalModel, symbol) -> Fraction:
    """Exact posterior of state 1 given one signal, mu1 / (mu0 + mu1)."""
    i = model._position(symbol)
    w0, w1 = model.mu0[i], model.mu1[i]
    if w0 + w1 == 0:
        raise AbsoluteContinuityError(
            f"symbol {symbol!r} has zero weight under both states"
        )
    return w1 / (w0 + w1)


def kl_divergence(p: Sequence, q: Sequence) -> float:
    """Kullback-Leibler divergence sum(p * log(p/q)) over one shared alphabet.

    Inputs are aligned weight sequences.  Mutual absolute continuity is
    required; a support mismatch raises :class:`AbsoluteContinuityError`.
    """
    if len(p) != len(q):
        raise ValueError("distributions must share one alphabet")
    pw = [as_weight(w) for w in p]
    qw = [as_weight(w) for w in q]
    total = 0.0
    for wp, wq in zip(pw, qw):
        if (wp == 0) != (wq == 0):
            raise AbsoluteContinuityError("supports differ; divergence undefined")
        if wp == 0:
            continue
        ratio = wp / wq
        total += float(wp) * (math.log(ratio.numerator) - math.log(ratio.denominator))
    return total


def symmetrized_divergence(model: SignalModel) -> float:
    """KL(mu1 || mu0) + KL(mu0 || mu1)."""
    return kl_divergence(model.mu1, model.mu0) + kl_divergence(model.mu0, model.mu1)


def llr_conditional_moments(model: SignalModel) -> tuple[float, float, float, float]:
    """(mean under mu0, mean under mu1, variance under mu0, variance under mu1)
    of the log-likelihood ratio."""
    m0 = m1 = s0 = s1 = 0.0
    for symbol, w0, w1 in zip(model.alphabet, model.mu0, model.mu1):
        if w0 == 0:
            continue
        z = log_likelihood_ratio(model, symbol)
        m0 += float(w0) * z
        m1 += float(w1) * z
        s0 += float(w0) * z * z
        s1 += float(w1) * z * z
    return m0, m1, s0 - m0 * m0, s1 - m1 * m1


def noise_to_signal_ratio(model: SignalModel) -> float:
    """2 (Var_mu1[z] + Var_mu0[z]) / (KL(mu1||mu0) + KL(mu0||mu1))^2.

    Dimensionless and symmetric under swapping the two conditionals.  Finite
    alphabets always have finite log-likelihood-ratio variance, so the only
    failure mode is a non-informative model, which the model type already
    excludes.
    """
    sym = symmetrized_divergence(model)
    if sym <= 0.0:
        raise NonInformativeModelError("model carries no information")
    _, _, v0, v1 = llr_conditional_moments(model)
    return 2.0 * (v1 + v0) / (sym * sym)


def cov_state_llr(model: SignalModel) -> float:
    """Cov(S, z) by direct enumeration over (state, symbol), uniform prior on S."""
    e_sz = 0.0
    e_s = 0.0
    e_z = 0.0
    for state in (0, 1):
        mu = model.mu1 if state == 1 else model.mu0
        for symbol, w in zip(model.alphabet, mu):
            if w == 0:
                continue
            weight = 0.5 * float(w)
            z = log_likelihood_ratio(model, symbol)
            e_sz += weight * state * z
            e_s += weight * state
            e_z += weight * z
    return e_sz - e_s * e_z


def truncate_llr(z: float, threshold: float) -> float:
    """Censored log-likelihood ratio: z when |z| < threshold, else 0."""
    if not threshold > 0:
        raise ValueError("truncation threshold must be positive")
    return z if abs(z) < threshold else 0.0


def truncated_model(model: SignalModel, threshold: float) -> SignalModel:
    """Signal model induced by the censored log-likelihood ratio.

    Symbols whose ratio falls inside the threshold keep their odds ratio as
    the new symbol; all censored symbols merge with the zero-ratio group.
    Raises :class:`NonInformativeTruncationError` when the threshold erases
    all information, which is detectable as soon as the model is built.
    """
    if threshold <= 0:
        raise ValueError("truncation threshold must be positive")
    groups: dict[Fraction, list[Fraction]] = {}
    for symbol, w0, w1 in zip(model.alphabet, model.mu0, model.mu1):
        if w0 == 0:
            continue
        ratio = w1 / w0
        z = math.log(ratio.numerator) - math.log(ratio.denominator)
        key = ratio if abs(z) < threshold else Fraction(1)
        bucket = groups.setdefault(key, [Fraction(0), Fraction(0)])
        bucket[0] += w0
        bucket[1] += w1
    alphabet = tuple(sorted(groups))
    mu0 = tuple(groups[k][0] for k in alphabet)
    mu1 = tuple(groups[k][1] for k in alphabet)
    if mu0 == mu1:
        raise NonInformativeTruncationError(
            f"threshold {threshold} leaves no informative signal"
        )
    return SignalModel(alphabet=alphabet, mu0=mu0, mu1=mu1)


def belief_range(model: SignalModel) -> tuple[Fraction, Fraction]:
    """Smallest and largest attainable private beliefs."""
    beliefs = [private_belief(model, s) for s in model.support]
    return min(beliefs), max(beliefs)


def belief_tail_cdf(model: SignalModel, state: int) -> Callable[[float], Fraction]:
    """P(private belief < eps | S = state) as a function of eps.

    The running sums of the weights, in ascending belief order, are formed
    once; each call bisects the sorted beliefs with exact ``<`` comparisons.
    """
    pairs = sorted(
        (private_belief(model, s), model.weight(state, s)) for s in model.support
    )
    beliefs = [belief for belief, _ in pairs]
    rounded = [float(belief) for belief in beliefs]
    totals = [Fraction(0)]
    for _, w in pairs:
        totals.append(totals[-1] + w)

    def cdf(eps) -> Fraction:
        lo, hi = 0, len(beliefs)
        if isinstance(eps, float):
            # A belief's correctly rounded float is on the same side of a
            # float eps as the belief itself unless it equals eps, so only
            # the beliefs that round to eps need the exact comparison.
            lo = bisect_left(rounded, eps)
            hi = bisect_right(rounded, eps, lo)
        return totals[bisect_left(beliefs, eps, lo, hi)]

    return cdf
