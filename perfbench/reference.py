"""The reference computation that benchmark times are read against.

Operation times are scaled to a host on which one call of ``reference``
takes REF_MS.  The shared host this benchmark runs on changes speed by
up to 1.6x, in stretches of a fraction of a second to minutes; the
reference slows with it, so the ratio of an operation's time to the
reference times around it stays put where the raw time does not.  This
module imports numpy and nothing of factorbn, so that a fresh
interpreter can time the package's import and then the reference.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REF_MS = 1.0


def reference() -> None:
    """A fixed computation of about a millisecond, in the same mix as
    the program: interpreted loops, dicts, sorting, Fractions and small
    numpy tables."""
    d: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7919) % 211
        d[k] = d.get(k, 0) + i
    sorted(d.items(), key=lambda kv: kv[1])
    sum(Fraction(i, i + 1) for i in range(30))
    a = np.arange(36.0).reshape(6, 6)
    for _ in range(30):
        a = (a * 0.5 + a.T).sum(axis=0)[:, None] * np.ones(6) / 100.0


def reference_ms(repeats: int = 1) -> float:
    """The reference's time in ms, the median of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)
