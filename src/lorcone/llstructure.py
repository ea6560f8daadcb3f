"""Finite models of abstract Lorentzian length structures.

A catalog is a finite set of points and directed curves, each carrying a
nonnegative length and a timelike/causal class; concatenation closure is
implicit.  Derived relations, the derived time separation (a longest-path
computation over the causal graph, with positive cycles flagged as infinite)
and the bare-Lorentzian-length-space checks live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .bruteforce import enumerate_tau
from .errors import CatalogError


@dataclass(frozen=True)
class CatalogCurve:
    src: str
    dst: str
    length: float
    timelike: bool


class CurveCatalog:
    """Finite curve catalog; timelike curves must have positive length."""

    def __init__(self, points, curves):
        names = list(dict.fromkeys(str(p) for p in points))
        index = {p: i for i, p in enumerate(names)}
        parsed = []
        for cur in curves:
            if isinstance(cur, CatalogCurve):
                src, dst, length, timelike = cur.src, cur.dst, cur.length, cur.timelike
            else:
                src, dst, length, cls = cur
                timelike = _parse_class(cls)
            src, dst = str(src), str(dst)
            length = float(length)
            if length < 0:
                raise CatalogError(f"curve {src}->{dst} has negative length")
            if timelike and length <= 0:
                raise CatalogError(
                    f"timelike curve {src}->{dst} must have positive length")
            for name in (src, dst):
                if name not in index:
                    index[name] = len(names)
                    names.append(name)
            parsed.append(CatalogCurve(src, dst, length, timelike))
        if not names:
            raise CatalogError("catalog has no points")
        self.points = tuple(names)
        self.index = index
        self.curves = tuple(parsed)

    @classmethod
    def from_text(cls, text):
        """Parse ``point id`` and ``curve from to length class`` lines."""
        points, curves = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "point" and len(parts) == 2:
                points.append(parts[1])
            elif parts[0] == "curve" and len(parts) == 5:
                try:
                    length = float(parts[3])
                except ValueError as exc:
                    raise CatalogError(f"line {lineno}: bad length {parts[3]!r}") from exc
                curves.append((parts[1], parts[2], length, parts[4]))
            else:
                raise CatalogError(
                    f"line {lineno}: expected 'point id' or "
                    f"'curve from to length class'")
        return cls(points, curves)

    def to_text(self):
        lines = [f"point {p}" for p in self.points]
        for c in self.curves:
            cls = "timelike" if c.timelike else "causal"
            lines.append(f"curve {c.src} {c.dst} {c.length:.9g} {cls}")
        return "\n".join(lines) + "\n"

    @property
    def n(self):
        return len(self.points)


def _parse_class(cls):
    if cls in ("timelike", True):
        return True
    if cls in ("causal", False):
        return False
    raise CatalogError(f"curve class must be 'timelike' or 'causal', got {cls!r}")


def _bool_matmul(a, b):
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0


def _closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix."""
    reach = adj.copy()
    np.fill_diagonal(reach, True)
    # repeated squaring
    while True:
        nxt = _bool_matmul(reach, reach)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


@dataclass(frozen=True)
class RelationTable:
    points: tuple
    le: np.ndarray   # x <= y (reflexive-transitive over causal curves)
    ll: np.ndarray   # x << y (chains of timelike curves only)

    def index(self, p):
        return self.points.index(str(p))


def derived_relations(cat: CurveCatalog) -> RelationTable:
    n = cat.n
    causal = np.zeros((n, n), dtype=bool)
    timelike = np.zeros((n, n), dtype=bool)
    for c in cat.curves:
        i, j = cat.index[c.src], cat.index[c.dst]
        causal[i, j] = True
        if c.timelike:
            timelike[i, j] = True
    le = _closure(causal)
    # << : transitive (not reflexive) closure over timelike curves
    ll = timelike.copy()
    for _ in range(n):
        nxt = ll | _bool_matmul(ll, ll)
        if np.array_equal(nxt, ll):
            break
        ll = nxt
    return RelationTable(cat.points, le, ll)


@dataclass(frozen=True)
class TauTable:
    points: tuple
    values: np.ndarray     # finite part of tau
    infinite: np.ndarray   # True where tau = infinity (positive cycles)

    def tau(self, p, q):
        i = self.points.index(str(p))
        j = self.points.index(str(q))
        if self.infinite[i, j]:
            return float("inf")
        return float(self.values[i, j])


def derived_tau(cat: CurveCatalog) -> TauTable:
    """tau(x, y) = longest concatenated causal path length; pairs through a
    positive-length cycle are flagged infinite rather than given a sentinel."""
    n = cat.n
    rel = derived_relations(cat)
    adj = np.zeros((n, n))
    has_edge = np.zeros((n, n), dtype=bool)
    for c in cat.curves:
        i, j = cat.index[c.src], cat.index[c.dst]
        has_edge[i, j] = True
        adj[i, j] = max(adj[i, j], c.length)
    graph = csr_matrix(has_edge.astype(float))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    positive_comp = np.zeros(n_comp, dtype=bool)
    for c in cat.curves:
        i, j = cat.index[c.src], cat.index[c.dst]
        if labels[i] == labels[j] and c.length > 0:
            positive_comp[labels[i]] = True
    # pairs whose connecting paths can enter a positive component
    infinite = np.zeros((n, n), dtype=bool)
    for comp in np.nonzero(positive_comp)[0]:
        members = np.nonzero(labels == comp)[0]
        into = rel.le[:, members].any(axis=1)
        outof = rel.le[members, :].any(axis=0)
        infinite |= np.outer(into, outof)
    # longest path on the condensation (zero-length inside non-positive SCCs)
    order = _topo_order(labels, n_comp, has_edge)
    values = np.zeros((n, n))
    for src in range(n):
        best = np.full(n, -np.inf)
        best[src] = 0.0
        # members of src's component are mutually reachable at length 0
        same = labels == labels[src]
        best[same & rel.le[src]] = 0.0
        for comp in order:
            for u in np.nonzero(labels == comp)[0]:
                if not np.isfinite(best[u]):
                    continue
                for v in np.nonzero(has_edge[u])[0]:
                    cand = best[u] + adj[u, v]
                    if cand > best[v]:
                        best[v] = cand
                    # zero-cost spread inside v's (non-positive) component
                    comp_v = labels == labels[v]
                    spread = comp_v & rel.le[v] & (best < best[v])
                    best[spread] = best[v]
        row = np.where(np.isfinite(best), np.maximum(best, 0.0), 0.0)
        values[src] = np.where(rel.le[src], row, 0.0)
    values[~rel.le] = 0.0
    values[infinite] = 0.0
    return TauTable(cat.points, values, infinite & rel.le)


def _topo_order(labels, n_comp, has_edge):
    """Topological order of the SCC condensation (Kahn)."""
    indeg = np.zeros(n_comp, dtype=int)
    comp_edges = set()
    rows, cols = np.nonzero(has_edge)
    for u, v in zip(rows, cols):
        cu, cv = labels[u], labels[v]
        if cu != cv and (cu, cv) not in comp_edges:
            comp_edges.add((cu, cv))
            indeg[cv] += 1
    queue = [c for c in range(n_comp) if indeg[c] == 0]
    order = []
    outgoing = {}
    for cu, cv in comp_edges:
        outgoing.setdefault(cu, []).append(cv)
    while queue:
        c = queue.pop()
        order.append(c)
        for nxt in outgoing.get(c, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return order


@dataclass(frozen=True)
class LLVerdict:
    ok: bool
    failures: tuple
    triples_checked: int
    pairs_checked: int


def check_bare_llspace(cat: CurveCatalog, tol: float = 1e-9) -> LLVerdict:
    """Verify the bare-Lorentzian-length-space properties on the catalog:
    reverse triangle inequality over ordered triples, positivity on the
    chronological relation, vanishing off the causal relation, and, on
    catalogs of at most 12 points whose concatenations can be enumerated
    within budget, agreement of tau with exhaustive enumeration."""
    rel = derived_relations(cat)
    tt = derived_tau(cat)
    n = cat.n
    failures = []
    pairs = n * n
    vals = tt.values
    inf = tt.infinite
    positive = inf | (vals > 0)
    zero = ~inf & (vals == 0)
    for i, j in zip(*np.nonzero((rel.ll & ~positive) | (~rel.le & ~zero))):
        if rel.ll[i, j] and not positive[i, j]:
            failures.append(("positivity", cat.points[i], cat.points[j]))
        if not rel.le[i, j] and not zero[i, j]:
            failures.append(("vanishing", cat.points[i], cat.points[j]))
    triples = 0
    for i in range(n):
        for j in np.nonzero(rel.le[i])[0]:
            for k in np.nonzero(rel.le[j])[0]:
                if not rel.le[i, k]:
                    failures.append(("transitivity", cat.points[i],
                                     cat.points[j], cat.points[k]))
                    continue
                triples += 1
                if inf[i, j] or inf[j, k]:
                    if not inf[i, k]:
                        failures.append(("reverse-triangle-inf",
                                         cat.points[i], cat.points[j],
                                         cat.points[k]))
                    continue
                if inf[i, k]:
                    continue
                if vals[i, j] + vals[j, k] > vals[i, k] + tol:
                    failures.append(("reverse-triangle", cat.points[i],
                                     cat.points[j], cat.points[k]))
    # tau is the supremum over concatenations: on small catalogs the DP must
    # agree with exhaustive enumeration
    if n <= 12:
        try:
            ref_vals, ref_inf = enumerate_tau(cat)
        except CatalogError:
            pass   # too many concatenations to enumerate: no second route
        else:
            if not (np.allclose(vals, ref_vals, rtol=tol, atol=tol)
                    and np.array_equal(inf, ref_inf)):
                failures.append(("tau-intrinsic",))
    return LLVerdict(not failures, tuple(failures), triples, pairs)
