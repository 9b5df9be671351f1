"""Shared builders for random matrices and small vocabularies, and the
search-bound patch."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from ctcspot import LogProbMatrix, Vocabulary, spotter

# every bound off: no frame skipped, every first token admitted, no beam
# (and so no live-state cap): spot is then the exhaustive search
EXHAUSTIVE = {"beta": 0.0, "gamma": -math.inf, "beam": math.inf}


def search_bounds(beta: float | None = None, gamma: float | None = None,
                  beam: float | None = None, cap: int | None = None):
    """Patch spot's search bounds, the spotter module constants _BETA_THR,
    _GAMMA_THR, _BEAM_THR and _MAX_ACTIVE; a bound left None keeps its value."""
    bounds = {"_BETA_THR": beta, "_GAMMA_THR": gamma, "_BEAM_THR": beam, "_MAX_ACTIVE": cap}
    return mock.patch.multiple(spotter, **{k: v for k, v in bounds.items() if v is not None})


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log softmax in float64, returned as float32."""
    x64 = np.asarray(x, dtype=np.float64)
    top = x64.max(axis=1, keepdims=True)
    lse = top + np.log(np.exp(x64 - top).sum(axis=1, keepdims=True))
    return (x64 - lse).astype(np.float32)


def random_matrix(rng: np.random.Generator, frames: int, width: int,
                  scale: float = 2.0) -> LogProbMatrix:
    """A normalized random log-prob matrix; scale spreads the distribution."""
    return LogProbMatrix(
        values=log_softmax_rows(rng.normal(size=(frames, width)) * scale),
        normalized=True,
    )


def one_hot_matrix(hot: list[int], width: int) -> LogProbMatrix:
    """Exact one-hot rows: the hot token gets log 1 = 0, the rest log 0 = -inf."""
    values = np.full((len(hot), width), -np.inf, dtype=np.float32)
    for t, tok in enumerate(hot):
        values[t, tok] = 0.0
    return LogProbMatrix(values=values, normalized=True)


def char_vocab(letters: str) -> Vocabulary:
    """Character-level vocabulary: letters, a space, and a trailing blank."""
    return Vocabulary(tokens=tuple(letters) + (" ", "<b>"), blank_id=len(letters) + 1)
