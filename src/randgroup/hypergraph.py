"""The incidence index of a presentation, and its diagnostic statistics.

``build`` makes one index per presentation and caches it there: each
relator's letters sorted in the letter order 1 < -1 < 2 < -2 < ...,
split into generators and signs, and each generator's occurrence count.
Freeness, the unused generators, the exponent sums of the
abelianization and the diagnostics below all read it. As a hypergraph,
every relator contributes one edge: the set of generators occurring in
it (ignoring signs). Relators are classified by how many distinct
generators they use: type 3 uses all ell positions distinctly, type 2
exactly ell-1, type 1 at most ell-2. The ell-uniform part consists of
the type-3 edges; its component structure and the interaction of type-2
edges with those components drive the sparse-regime analysis, so the
diagnostics report exact violation counts for six structural properties
that hold asymptotically in the sparse regime:

  1. no support is shared by two relators (double edges)
  2. no type-1 relators
  3. every component with an edge has at least 2 vertices of degree 1
  4. no type-2 edge meets a component in more than one vertex
  5. no component meets two different type-2 edges
  6. the type-2 edges form a matching (no shared vertices)

All of it is vectorized in numpy alone, components too; a presentation
with 10^6 relators is processed in seconds. Components come from root
hooking. Past the free threshold there are far more uniform edges than
vertices, and most of them join vertices already joined, so with at
least 16m edges the components are first hooked on a strided sample of
about 8m edges; every edge is then mapped to the sample's components,
and only the few that still cross two of them are hooked again over
those contracted components. The result is exact, and each label is the
one a single pass over all edges gives (see ``_component_labels``).
Each support class is gathered once, and the double edges are counted
on one sorted packed key per support.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, DomainError
from .model import Presentation, _identity, _letter_codes, row_keys


# most entries of any dense array built per presentation: the
# generator counts here, and the exponent matrices of abelianization
_DENSE_CAP = 2 * 10**8


class SupportHypergraph:
    """The incidence index: vertices 1..m, one edge per relator.

    Row i of ``gens`` (int32) and ``signs`` (int8, +1 or -1) is relator
    i's letters in the letter order, so equal generators are adjacent
    and each row ascends with duplicates kept. ``counts[g]`` is the
    number of occurrences of generator g. All analyses share the
    arrays, so they are read-only.
    """

    def __init__(self, m: int, ell: int, gens: np.ndarray,
                 signs: np.ndarray, counts: np.ndarray):
        self.m = m
        self.ell = ell
        for array in (gens, signs, counts):
            array.setflags(write=False)
        self.gens = gens
        self.signs = signs
        self.counts = counts

    @cached_property
    def run_starts(self) -> np.ndarray:
        """True where a letter's generator differs from the one before it."""
        new = np.ones(self.gens.shape, dtype=bool)
        new[:, 1:] = self.gens[:, 1:] != self.gens[:, :-1]
        new.setflags(write=False)
        return new

    @cached_property
    def distinct(self) -> np.ndarray:
        """Number of distinct generators per relator."""
        # ell column adds beat a row-wise reduce over ell booleans
        out = self.run_starts[:, 0].astype(np.intp)
        for j in range(1, self.ell):
            out += self.run_starts[:, j]
        out.setflags(write=False)
        return out

    @property
    def n_edges(self) -> int:
        return self.gens.shape[0]

    def uniform_edge_rows(self) -> np.ndarray:
        """The type-3 edges as an (n3, ell) matrix of distinct sorted vertices."""
        return self.gens[self.distinct == self.ell]

    def class_supports(self, d: int) -> np.ndarray:
        """Supports (width d) of all edges with exactly d distinct vertices."""
        rows = self.distinct == d
        return self.gens[rows][self.run_starts[rows]].reshape(-1, d)


def build(pres: Presentation) -> SupportHypergraph:
    """The presentation's incidence index, made on first use and cached."""
    if pres._index is None:
        if pres.m + 1 > _DENSE_CAP:
            raise BudgetExceededError("incidence_index", _DENSE_CAP,
                                      f"{pres.m + 1} generator counts")
        # one sort of the letter codes orders generators and signs at once
        codes = np.sort(_letter_codes(pres.relator_matrix), axis=1)
        gens = (codes >> 1).astype(np.int32) + 1
        signs = 1 - 2 * (codes & 1).astype(np.int8)
        counts = np.bincount(gens.ravel(), minlength=pres.m + 1)
        pres._index = SupportHypergraph(pres.m, pres.ell, gens, signs, counts)
    return pres._index


def _hook(m: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """Component labels over vertices 0..m-1 joined by the pairs (u, v),
    numbered 0, 1, ... in order of first appearance along 0..m-1.

    Root hooking: each round, every pair still joining two trees hooks the
    larger root onto the smaller, then paths are compressed fully. Parents
    only decrease, so each root ends as its component's least vertex, and
    its rank is the label.
    """
    parent = np.arange(m, dtype=np.int32)
    while True:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        if not cross.any():
            break
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
    rank = np.cumsum(parent == np.arange(m, dtype=np.int32), dtype=np.int32)
    return int(rank[-1]), rank[parent] - 1


def _edge_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's first vertex paired with each of its others."""
    return np.repeat(rows[:, 0], rows.shape[1] - 1), rows[:, 1:].ravel()


# the components are first labelled on about _SAMPLE_EDGES * m edges,
# once there are at least twice that many
_SAMPLE_EDGES = 8


def _component_labels(m: int, uniform_rows: np.ndarray) -> tuple[int, np.ndarray]:
    """Component labels over vertices 1..m, numbered 0, 1, ... in order of
    first appearance along 1..m; only the ell-uniform edges connect.

    With n >= 2 * _SAMPLE_EDGES * m edges, the components are first
    hooked on every (n // (_SAMPLE_EDGES * m))-th edge. Every edge is
    then mapped through those sample labels, and only the edges that
    still cross two sample components are hooked again, over the
    contracted vertices: the union's components are the sample's
    components joined by the crossing edges, so the result is exact
    however the sample falls. No label moves: each pass numbers by first
    appearance, and the contracted vertices are in order of their least
    vertex, so the order of each union component's least vertex is the
    order of its least contracted vertex. With fewer edges, all of them
    are hooked at once. int32 holds every vertex id (m + 1 <= the cap).
    """
    n, width = uniform_rows.shape
    if n == 0 or width <= 1:
        return m, np.arange(m, dtype=np.int32)  # size-1 edges connect nothing
    stride = n // (_SAMPLE_EDGES * m)
    if stride < 2:
        return _hook(m, *_edge_pairs(uniform_rows - 1))
    k, inner = _hook(m, *_edge_pairs(uniform_rows[::stride] - 1))
    # label of vertex v at index v, so the rows need no shift
    contract = np.empty(m + 1, dtype=np.int32)
    contract[1:] = inner
    rows = contract[uniform_rows]
    rows = rows[(rows[:, 1:] != rows[:, :1]).any(axis=1)]
    k, outer = _hook(k, *_edge_pairs(rows))
    return k, outer[inner]


@dataclass(frozen=True)
class DiagnosticsReport:
    double_edge_count: int
    type_counts: tuple[int, int, int]
    component_count: int
    max_component_size: int
    degree1_per_component: tuple[int, ...]
    low_exposure_components: int
    type2_component_multi_meet: int
    components_meeting_two_type2: int
    type2_matching_violations: int

    def to_json_dict(self) -> dict:
        return asdict(self) | {
            "type_counts": dict(zip("123", self.type_counts)),
            "degree1_per_component": list(self.degree1_per_component)}

    def summary_dict(self) -> dict:
        """Scalar counters only, for embedding in trial records."""
        d = self.to_json_dict()
        del d["degree1_per_component"]
        return d


def _double_edges(supports: np.ndarray, base: int) -> int:
    """Number of distinct supports (rows of vertex ids below ``base``)
    that occur in two or more rows."""
    if supports.shape[0] < 2:
        return 0
    keys = row_keys(supports.T, base, digits=_identity)
    if len(keys) == 1:
        keys = [np.sort(keys[0])]  # the order itself is never read
    else:
        order = np.lexsort(keys[::-1])
        keys = [key[order] for key in keys]
    repeat = np.ones(supports.shape[0] - 1, dtype=bool)
    for key in keys:
        repeat &= key[1:] == key[:-1]
    # each run of equal supports starts one run of repeats
    return int(repeat[0]) + int((repeat[1:] & ~repeat[:-1]).sum())


def diagnostics(pres: Presentation) -> DiagnosticsReport:
    h = build(pres)
    m, ell = pres.m, pres.ell
    types = np.bincount(h.distinct, minlength=ell + 1)
    t3 = int(types[ell])
    t2 = int(types[ell - 1]) if ell >= 2 else 0
    t1 = h.n_edges - t3 - t2

    # each class's supports, taken once: the type-3 rows are their own
    uniform = h.uniform_edge_rows()
    sup2 = h.class_supports(ell - 1) if t2 else None
    # double edges: any support (of any size) arising from >= 2 relators
    double_edges = _double_edges(uniform, m + 1)
    if sup2 is not None:
        double_edges += _double_edges(sup2, m + 1)
    for d in np.flatnonzero(types[:ell - 1]):
        double_edges += _double_edges(h.class_supports(int(d)), m + 1)

    n_comp, labels = _component_labels(m, uniform)
    max_comp = int(np.bincount(labels).max()) if m else 0

    # degree in the uniform part only
    degree = np.bincount(uniform.ravel(), minlength=m + 1)[1:]
    nontrivial = np.bincount(labels[degree >= 1], minlength=n_comp) > 0
    deg1_counts = np.bincount(labels[degree == 1], minlength=n_comp)[nontrivial]
    degree1_per_component = tuple(deg1_counts.tolist())
    low_exposure = int((deg1_counts < 2).sum())

    # type-2 edge interactions with uniform components
    multi_meet = 0
    meets_two = 0
    matching_violations = 0
    if sup2 is not None:
        vert_use = np.bincount(sup2.ravel(), minlength=m + 1)[1:]
        matching_violations = int((vert_use >= 2).sum())

        # component of vertex v at index v, so the supports need no shift
        label_of = np.empty(m + 1, dtype=labels.dtype)
        label_of[1:] = labels
        lab2 = np.sort(label_of[sup2], axis=1)
        keep = np.ones(lab2.shape, dtype=bool)
        keep[:, 1:] = lab2[:, 1:] != lab2[:, :-1]
        multi_meet = int((np.bincount(lab2[~keep], minlength=n_comp) > 0).sum())
        # distinct (edge, component) incidences, restricted to components
        # that contain at least one uniform edge
        per_comp = np.bincount(lab2[keep], minlength=n_comp)
        meets_two = int((per_comp[nontrivial] >= 2).sum())

    return DiagnosticsReport(
        double_edge_count=double_edges,
        type_counts=(t1, t2, t3),
        component_count=n_comp,
        max_component_size=max_comp,
        degree1_per_component=degree1_per_component,
        low_exposure_components=low_exposure,
        type2_component_multi_meet=multi_meet,
        components_meeting_two_type2=meets_two,
        type2_matching_violations=matching_violations,
    )


def verify_edge_lower_bound(ell: int, k: int) -> bool:
    """Exact check of ceil((2k-1)/ell) >= 6k/(5(ell-1)).

    Both sides are compared by integer cross-multiplication, which is
    exact rational arithmetic with no rounding anywhere.
    """
    if ell < 3:
        raise DomainError(f"need ell >= 3, got {ell}")
    if k < ell + 1:
        raise DomainError(f"need k >= ell+1, got k={k}, ell={ell}")
    lhs = (2 * k - 1 + ell - 1) // ell  # ceil((2k-1)/ell)
    return lhs * 5 * (ell - 1) >= 6 * k
