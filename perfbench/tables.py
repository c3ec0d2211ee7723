"""Seeded uniform sampler of valid generalized inversion tables.

A table ``(k; a_1..a_n; b, beta)`` is valid exactly when

1. ``3 <= k <= n``;
2. ``0 <= a_i <= i-1`` for all i;
3. ``a_{k-1} < a_k``;
4. ``a_{k-1} + beta < a_k + b <= k-2``.

Outside positions k-1 and k the entries are independent ranges, so only
the coupled block ``(a_{k-1}, a_k, b, beta)`` needs care.  Writing
``x = a_{k-1}``, ``y = a_k``, ``d = y - x >= 1`` and ``m = k-2-y``, a block
is fixed by ``y in [1, k-2]``, ``d in [1, y]``, ``b in [0, m]`` and
``beta in [0, d+b-1]``.  Summing the ``d+b`` choices of beta gives
``C(k) = k (k-1)^2 (k-2) / 12`` blocks, and the whole order-n space has
``C(k) * n! / ((k-1) k)`` tables with a given k, so k is drawn with weight
``(k-1)(k-2)``.  Each level below is drawn with the number of completions
it leaves as its weight, which makes every valid table equally likely.
Tables are in bijection with one-``-1`` ASMs, so this is also a uniform
sampler of those matrices.
"""

from __future__ import annotations

import random

from asmc import GenInvTable


def block_count(k: int) -> int:
    """Number of valid blocks ``(a_{k-1}, a_k, b, beta)`` for a given k."""
    return k * (k - 1) ** 2 * (k - 2) // 12


def random_table(n: int, rng: random.Random) -> GenInvTable:
    """A uniformly random valid generalized table of order ``n >= 3``."""
    if n < 3:
        raise ValueError(f"tables need n >= 3, got {n}")
    ks = range(3, n + 1)
    k = rng.choices(ks, weights=[(k - 1) * (k - 2) for k in ks])[0]
    ys = range(1, k - 1)
    y = rng.choices(ys, weights=[y * (k - 1 - y) for y in ys])[0]
    m = k - 2 - y
    ds = range(1, y + 1)
    d = rng.choices(ds, weights=[(m + 1) * d + m * (m + 1) // 2 for d in ds])[0]
    bs = range(0, m + 1)
    b = rng.choices(bs, weights=[d + b for b in bs])[0]
    beta = rng.randrange(d + b)
    a = [rng.randrange(i) for i in range(1, n + 1)]
    a[k - 2], a[k - 1] = y - d, y
    return GenInvTable(k=k, a=tuple(a), b=b, beta=beta)
