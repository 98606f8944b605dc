"""Reference computations for the benchmark's output checks.

Nothing here imports bootperc.  Closures use shifted neighbour sums over
whole arrays (one parallel infection round per loop), connected components
use scipy.sparse.csgraph, and the analytic references use
scipy.integrate.quad and brute-force enumeration.  Structures are plain
tuples ``(family, n, d, r, ell, k)`` so that the checks share no type with
the program under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, sparse
from scipy.sparse import csgraph


def shape_of(struct) -> tuple[int, ...]:
    family, n, d, r, ell, k = struct
    return (n,) * d + (k,) * ell


def threshold_array(struct) -> np.ndarray:
    """Per-vertex thresholds, by the family rules of the paper."""
    family, n, d, r, ell, k = struct
    thr = np.full(shape_of(struct), r, dtype=np.int8)
    if family == "star":
        thr[...] = r + ell
        thr[(slice(None),) * d + (0,) * ell] = r
    elif family == "slab":
        for ax in range(d, d + ell):
            interior = np.zeros(k, dtype=np.int8)
            interior[1:k - 1] = 1
            view = [1] * (d + ell)
            view[ax] = k
            thr += interior.reshape(view)
    return thr


def closure(masks: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Closures of a batch of initial sets: ``masks`` is (B, *shape) bool."""
    infected = np.array(masks, dtype=bool, copy=True)
    batch_thr = thr[None]
    while True:
        counts = np.zeros(infected.shape, dtype=np.int8)
        for ax in range(1, infected.ndim):
            lo = [slice(None)] * infected.ndim
            hi = [slice(None)] * infected.ndim
            lo[ax] = slice(None, -1)
            hi[ax] = slice(1, None)
            counts[tuple(hi)] += infected[tuple(lo)]
            counts[tuple(lo)] += infected[tuple(hi)]
        grown = infected | (counts >= batch_thr)
        if np.array_equal(grown, infected):
            return infected
        infected = grown


def closure_one(mask: np.ndarray, struct) -> np.ndarray:
    return closure(mask[None], threshold_array(struct))[0]


def boxes(mask: np.ndarray) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """1-based bounding boxes (lo, hi) of the nearest-neighbour components."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return set()
    pos = np.full(mask.size, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    coords = np.array(np.unravel_index(idx, mask.shape))
    rows, cols = [], []
    stride = 1
    for ax in reversed(range(mask.ndim)):
        ok = coords[ax] < mask.shape[ax] - 1
        nb = idx[ok] + stride
        hit = mask.ravel()[nb]
        rows.append(pos[idx[ok][hit]])
        cols.append(pos[nb[hit]])
        stride *= mask.shape[ax]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    graph = sparse.coo_matrix((np.ones(rows.size), (rows, cols)),
                              shape=(idx.size, idx.size)).tocsr()
    count, labels = csgraph.connected_components(graph, directed=False)
    lo = np.full((count, mask.ndim), np.iinfo(np.int64).max)
    hi = np.full((count, mask.ndim), -1)
    for ax in range(mask.ndim):
        np.minimum.at(lo[:, ax], labels, coords[ax])
        np.maximum.at(hi[:, ax], labels, coords[ax])
    return {(tuple(int(x) + 1 for x in a), tuple(int(x) + 1 for x in b))
            for a, b in zip(lo, hi)}


def span(mask: np.ndarray, struct) -> set:
    """<A>: boxes of the components of the horizontal shadow of [A]."""
    d = struct[2]
    closed = closure_one(mask, struct)
    shadow = closed.any(axis=tuple(range(d, closed.ndim)))
    return boxes(shadow)


def box_mask(struct, lo, hi) -> np.ndarray:
    out = np.zeros(shape_of(struct), dtype=bool)
    out[tuple(slice(a - 1, b) for a, b in zip(lo, hi))] = True
    return out


def internally_spanned(mask: np.ndarray, struct, lo, hi) -> bool:
    inside = mask & box_mask(struct, lo, hi)
    return (tuple(lo), tuple(hi)) in span(inside, struct)


def filled_component(mask: np.ndarray, comp: np.ndarray, struct) -> tuple[bool, int]:
    """(is comp connected and inside [A cap comp], longest side of its box)."""
    found = boxes(comp)
    if len(found) != 1:
        return False, 0
    (lo, hi), = found
    diam = max(b - a + 1 for a, b in zip(lo, hi))
    filled = closure_one(mask & comp, struct)
    return bool(not (comp & ~filled).any()), diam


# --- exact event polynomials by enumeration of every initial set ----------

def event_counts(struct, event: str, chunk: int = 1 << 15) -> np.ndarray:
    """c[j] = number of j-element initial sets for which the event holds."""
    shape = shape_of(struct)
    size = math.prod(shape)
    thr = threshold_array(struct)
    base = (slice(None),) * struct[2] + (0,) * struct[4]
    counts = np.zeros(size + 1, dtype=np.int64)
    bits = np.arange(size, dtype=np.int64)
    for start in range(0, 1 << size, chunk):
        sets = np.arange(start, min(start + chunk, 1 << size), dtype=np.int64)
        masks = ((sets[:, None] >> bits) & 1).astype(bool)
        closed = closure(masks.reshape((-1,) + shape), thr)
        if event == "percolates":
            hit = closed.reshape(len(sets), -1).all(axis=1)
        elif event == "semi_percolates":
            hit = closed[(slice(None),) + base].reshape(len(sets), -1).all(axis=1)
        else:
            raise ValueError(f"no exact oracle for {event}")
        counts += np.bincount(masks.sum(axis=1)[hit], minlength=size + 1)
    return counts


def event_prob(counts: np.ndarray, p: float) -> float:
    size = counts.size - 1
    return float(sum(c * p ** j * (1 - p) ** (size - j) for j, c in enumerate(counts)))


def prob_root(counts: np.ndarray, alpha: float) -> float:
    """p with P(p) = alpha, by bisection on the (increasing) polynomial."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if event_prob(counts, mid) >= alpha:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# --- analytic references ---------------------------------------------------

def beta(k: int, u: float) -> float:
    w = (1.0 - u) ** k
    b = 1.0 - w
    return 0.5 * (b + math.sqrt(b * b + 4.0 * u * w))


def g(k: int, z: float) -> float:
    """-log beta_k(1 - e^-z).  Near beta = 1 it uses 1 - beta = 2w(1-u)/(1+w+s),
    where w = (1-u)^k and s = sqrt((1-w)^2 + 4uw)."""
    u = -math.expm1(-z)
    w = math.exp(-k * z)
    b = -math.expm1(-k * z)
    s = math.sqrt(b * b + 4.0 * u * w)
    if b + s < 1.0:
        return -math.log(0.5 * (b + s))
    return -math.log1p(-2.0 * w * math.exp(-z) / (1.0 + w + s))


def lambda_quad(d: int, r: int) -> float:
    def f(z: float) -> float:
        return g(r - 1, z ** (d - r + 1))
    near, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    far, _ = integrate.quad(f, 1.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
    return near + far


def no_gap_dp(ell: int, m: int, u: float) -> float:
    """P(no L-gap) by a two-state chain over the primary indicators."""
    if m <= 0:
        return 1.0
    quiet = (1.0 - u) ** ell  # every secondary indicator of a column is off
    on, off = u, 1.0 - u  # last primary on / off, and no gap so far
    for _ in range(m):
        on, off = (on + off) * u, on * (1.0 - u) + off * (1.0 - u) * (1.0 - quiet)
    return on + off


def no_gap_brute(ell: int, m: int, u: float) -> float:
    """P(no L-gap) by summing over all 2^((m+1) + ell*m) outcomes."""
    bits = (m + 1) + ell * m
    patterns = np.arange(1 << bits, dtype=np.int64)
    on = ((patterns[:, None] >> np.arange(bits)) & 1).astype(bool)
    primary = on[:, :m + 1]
    gap = ~primary[:, :-1] & ~primary[:, 1:]
    if ell:
        gap &= ~on[:, m + 1:].reshape(-1, ell, m).any(axis=1)
    ones = on.sum(axis=1)
    weight = u ** ones * (1.0 - u) ** (bits - ones)
    return float(weight[~gap.any(axis=1)].sum())
