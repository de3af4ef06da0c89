from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randgroup.abelianization import _exponent_entries
from randgroup.errors import DomainError, LengthMismatchError
from randgroup.fa_certificates import unused_generators
from randgroup.hypergraph import (_SAMPLE_EDGES, _component_labels, build,
                                  diagnostics, verify_edge_lower_bound)
from randgroup.model import (ModelParams, make_presentation, sample,
                             sample_binomial)

from oracles import (classify_type, components, letter_key,
                     reference_component_labels, support)


@lru_cache(maxsize=None)
def word_pool(m, ell):
    letters = [x for g in range(1, m + 1) for x in (g, -g)]
    out = []
    for w in product(letters, repeat=ell):
        ok = all(w[i] != -w[i + 1] for i in range(ell - 1))
        if ok and w[-1] != -w[0]:
            out.append(w)
    return out


def pres_of(m, ell, rels):
    return make_presentation(m, ell, rels)


# ---------------------------------------------------------------- classify

def test_classify_examples():
    assert classify_type((1, 2, -1, 2), 4) == 1
    assert classify_type((1, 1, 2, 3), 4) == 2
    assert classify_type((1, 2, 3, 4), 4) == 3


def test_classify_length_mismatch():
    with pytest.raises(LengthMismatchError):
        classify_type((1, 2, 3), 4)


# ---------------------------------------------------------------- build

def test_build_uniform_edge():
    h = build(pres_of(3, 3, [(1, 2, 3)]))
    assert h.n_edges == 1
    assert support(h, 0) == frozenset({1, 2, 3})
    assert h.uniform_edge_rows().shape == (1, 3)


def test_build_type2_not_uniform():
    h = build(pres_of(2, 3, [(1, 1, 2)]))
    assert support(h, 0) == frozenset({1, 2})
    assert h.uniform_edge_rows().shape == (0, 3)


def test_build_empty():
    h = build(pres_of(5, 3, []))
    assert h.n_edges == 0
    assert components(h) == [[v] for v in range(1, 6)]


# ---------------------------------------------------------------- components

def test_components_two_overlapping_edges():
    h = build(pres_of(6, 3, [(1, 2, 3), (3, 4, 5)]))
    assert components(h) == [[1, 2, 3, 4, 5], [6]]


def test_components_disjoint_edges():
    h = build(pres_of(7, 3, [(1, 2, 3), (4, 5, 6)]))
    assert components(h) == [[1, 2, 3], [4, 5, 6], [7]]


def test_components_partition_vertex_set():
    h = build(pres_of(6, 3, [(1, 2, 3), (2, 3, 4)]))
    flat = sorted(v for comp in components(h) for v in comp)
    assert flat == list(range(1, 7))


def edge_rows(*columns):
    """Uniform edge rows as the index holds them: int32, each row sorted."""
    return np.sort(np.stack(columns, axis=1), axis=1).astype(np.int32)


def shuffled_path(rng, n):
    perm = rng.permutation(n) + 1
    return n, edge_rows(perm[:-1], perm[1:])


def shuffled_hyperpath(rng, n):
    # 3-uniform edges, each sharing its last vertex with the next one
    perm = rng.permutation(n) + 1
    return n, edge_rows(perm[:-1:2], perm[1::2], perm[2::2])


def random_recursive_tree(rng, n):
    # vertex i hangs from a uniform earlier vertex; the labels are shuffled
    # and a few isolated vertices follow
    perm = rng.permutation(n) + 1
    child = np.arange(1, n)
    hang = rng.integers(child)
    return n + 40, edge_rows(perm[hang], perm[child])


def forest_of_paths(rng, n):
    # 100 shuffled paths over one shuffled vertex set: many components
    perm = rng.permutation(n) + 1
    links = np.arange(n - 1)
    links = links[links % (n // 100) != n // 100 - 1]
    return n, edge_rows(perm[links], perm[links + 1])


def random_edges(rng, vertices, n, ell):
    """n uniform sets of ell distinct vertices from ``vertices``, as sorted rows."""
    rows = np.empty((0, ell), dtype=np.int64)
    while len(rows) < n:
        draw = np.sort(rng.choice(vertices, size=(2 * n, ell)), axis=1)
        rows = np.concatenate([rows, draw[(np.diff(draw, axis=1) > 0).all(axis=1)]])
    return rows[:n]


def dense_blocks(rng, blocks, n, ell):
    """n edges, each inside one of the vertex arrays ``blocks`` (drawn in
    proportion to size), in shuffled order."""
    sizes = np.array([len(b) for b in blocks])
    share = rng.multinomial(n, sizes / sizes.sum())
    rows = np.concatenate([random_edges(rng, b, k, ell)
                           for b, k in zip(blocks, share)])
    return rows[rng.permutation(n)]


def two_dense_blocks(rng, m=600):
    # 100 vertices are isolated
    perm = rng.permutation(m) + 1
    rows = dense_blocks(rng, [perm[:250], perm[250:500]], 10_000, 4)
    return m, edge_rows(*rows.T)


def bridges_off_stride(rng, m=400):
    # three dense blocks joined only by two edges at odd rows, which the
    # sample of every second row leaves out; 10 vertices are isolated
    perm = rng.permutation(m) + 1
    blocks = perm[:130], perm[130:260], perm[260:390]
    rows = dense_blocks(rng, blocks, 2 * _SAMPLE_EDGES * m, 3)
    rows[1] = blocks[0][0], blocks[0][1], blocks[1][0]
    rows[3] = blocks[1][1], blocks[2][0], blocks[2][1]
    return m, edge_rows(*rows.T)


COMPONENT_SHAPES = {
    "shuffled_path": lambda rng: shuffled_path(rng, 10_000),
    "shuffled_hyperpath": lambda rng: shuffled_hyperpath(rng, 10_001),
    "random_recursive_tree": lambda rng: random_recursive_tree(rng, 10_000),
    "forest_of_paths": lambda rng: forest_of_paths(rng, 10_000),
    "ell_1": lambda rng: (30, edge_rows(rng.permutation(30)[:20] + 1)),
    "no_uniform_edges": lambda rng: (50, np.empty((0, 3), dtype=np.int32)),
    "m_1": lambda rng: (1, np.ones((1, 1), dtype=np.int32)),
    "m_1_no_edges": lambda rng: (1, np.empty((0, 2), dtype=np.int32)),
    # at least 2 * _SAMPLE_EDGES * m edges: labelled on a sample first
    "dense_random": lambda rng: (500, edge_rows(
        *random_edges(rng, np.arange(1, 501), 10_000, 4).T)),
    "two_dense_blocks": two_dense_blocks,
    "bridges_off_stride": bridges_off_stride,
}


@pytest.mark.parametrize("shape", sorted(COMPONENT_SHAPES))
@pytest.mark.parametrize("seed", [0, 1])
def test_component_labels_match_union_find(shape, seed):
    m, rows = COMPONENT_SHAPES[shape](np.random.default_rng(seed))
    n, labels = _component_labels(m, rows)
    assert labels.shape == (m,)
    assert (n, labels.tolist()) == reference_component_labels(m, rows)


def test_sample_leaves_bridges_split():
    # the sample's labels see three blocks; only the contraction joins them
    m, rows = bridges_off_stride(np.random.default_rng(0))
    stride = len(rows) // (_SAMPLE_EDGES * m)
    assert stride == 2
    n_sample, _ = reference_component_labels(m, rows[::stride])
    assert (n_sample, _component_labels(m, rows)[0]) == (13, 11)


@st.composite
def sampled_component_graphs(draw):
    """At least 2 * _SAMPLE_EDGES * m uniform edges inside random blocks,
    some vertices isolated, and a few edges at rows off the sample's
    stride, which may join blocks that the sample leaves apart."""
    ell = draw(st.integers(2, 4))
    m = draw(st.integers(ell, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # block n_blocks holds the isolated vertices; block 0 has >= ell
    n_blocks = draw(st.integers(1, 4))
    block = rng.integers(0, n_blocks + 1, size=m)
    block[rng.permutation(m)[:ell]] = 0
    blocks = [np.flatnonzero(block == b) + 1 for b in range(n_blocks)]
    blocks = [b for b in blocks if len(b) >= ell]
    n = 2 * _SAMPLE_EDGES * m + draw(st.integers(0, 20 * m))
    rows = dense_blocks(rng, blocks, n, ell)
    stride = n // (_SAMPLE_EDGES * m)
    off = np.flatnonzero(np.arange(n) % stride)
    for i in rng.choice(off, size=draw(st.integers(0, 3)), replace=False):
        rows[i] = np.sort(rng.choice(m, size=ell, replace=False) + 1)
    return m, edge_rows(*rows.T)


@settings(max_examples=60, deadline=None)
@given(sampled_component_graphs())
def test_sampled_component_labels_match_union_find(graph):
    m, rows = graph
    assert len(rows) >= 2 * _SAMPLE_EDGES * m
    n, labels = _component_labels(m, rows)
    assert (n, labels.tolist()) == reference_component_labels(m, rows)


# ---------------------------------------------------------------- diagnostics

def test_double_edge_counted_once():
    rep = diagnostics(pres_of(3, 3, [(1, 2, 3), (1, 3, 2)]))
    assert rep.double_edge_count == 1
    assert rep.type_counts == (0, 0, 2)


def test_type2_matching_violation():
    # both relators have support {1,2}, so both vertices lie in two
    # type-2 edges; the shared support is also a double edge
    rep = diagnostics(pres_of(2, 3, [(1, 1, 2), (2, 2, 1)]))
    assert rep.type_counts == (0, 2, 0)
    assert rep.type2_matching_violations == 2
    assert rep.double_edge_count == 1
    assert rep.components_meeting_two_type2 == 0


def test_clean_single_edge():
    rep = diagnostics(pres_of(4, 3, [(1, 2, 3)]))
    assert rep.type_counts == (0, 0, 1)
    assert rep.double_edge_count == 0
    assert rep.component_count == 2
    assert rep.max_component_size == 3
    assert rep.degree1_per_component == (3,)
    assert rep.low_exposure_components == 0
    assert rep.type2_component_multi_meet == 0
    assert rep.components_meeting_two_type2 == 0
    assert rep.type2_matching_violations == 0


def test_type2_multi_meet():
    # uniform edge joins 1,2,3 into one component; the type-2 relator
    # (1,2,2,4) has support {1,2,4} and meets that component twice
    rep = diagnostics(pres_of(4, 4, [(1, 2, 3, 4), (1, 2, 2, 4)]))
    assert rep.type_counts == (0, 1, 1)
    assert rep.type2_component_multi_meet == 1


def test_component_meets_two_type2():
    rep = diagnostics(pres_of(5, 3, [(1, 2, 3), (1, 1, 4), (3, 3, 5)]))
    # supports {1,4} and {3,5} each meet the component {1,2,3} once
    assert rep.components_meeting_two_type2 == 1
    assert rep.type2_component_multi_meet == 0
    assert rep.type2_matching_violations == 0


def test_report_json_round_trips():
    rep = diagnostics(pres_of(4, 3, [(1, 2, 3), (1, 1, 2)]))
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert d["type_counts"] == {"1": 0, "2": 1, "3": 1}
    assert set(rep.summary_dict()) == set(d) - {"degree1_per_component"}


# ------------------------------------------------- oracle cross-validation

def oracle_diagnostics(pres):
    """Plain-python recount of every diagnostic, sharing no code with
    the vectorized implementation."""
    m, ell = pres.m, pres.ell
    sups = [frozenset(abs(x) for x in r) for r in pres.relators]
    types = [3 if len(s) == ell else (2 if len(s) == ell - 1 else 1)
             for s in sups]

    support_mult = Counter(sups)
    double = sum(1 for n in support_mult.values() if n >= 2)

    uni = [s for s, t in zip(sups, types) if t == 3]
    adj = {v: set() for v in range(1, m + 1)}
    for s in uni:
        for a in s:
            adj[a] |= s - {a}
    comps, seen = [], set()
    for v in range(1, m + 1):
        if v in seen:
            continue
        comp, stack = set(), [v]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(comp)

    deg = Counter()
    for s in uni:
        deg.update(s)
    nontriv = [i for i, c in enumerate(comps) if any(deg[v] for v in c)]
    deg1 = tuple(sum(1 for v in comps[i] if deg[v] == 1) for i in nontriv)

    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    t2 = [s for s, t in zip(sups, types) if t == 2]
    multi = set()
    for s in t2:
        labs = [comp_of[v] for v in s]
        multi |= {lab for lab in labs if labs.count(lab) >= 2}
    meet = Counter()
    for s in t2:
        for lab in {comp_of[v] for v in s}:
            if lab in nontriv:
                meet[lab] += 1
    t2deg = Counter()
    for s in t2:
        t2deg.update(s)

    return {
        "double_edge_count": double,
        "type_counts": (types.count(1), types.count(2), types.count(3)),
        "component_count": len(comps),
        "max_component_size": max(len(c) for c in comps),
        "degree1_per_component": deg1,
        "low_exposure_components": sum(1 for d in deg1 if d < 2),
        "type2_component_multi_meet": len(multi),
        "components_meeting_two_type2":
            sum(1 for n in meet.values() if n >= 2),
        "type2_matching_violations":
            sum(1 for n in t2deg.values() if n >= 2),
    }


@st.composite
def small_presentations(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    ell = draw(st.integers(min_value=1, max_value=4))
    pool = word_pool(m, ell)
    k = draw(st.integers(min_value=0, max_value=min(len(pool), 8)))
    idxs = draw(st.lists(st.integers(0, len(pool) - 1),
                         min_size=k, max_size=k, unique=True))
    return make_presentation(m, ell, [pool[i] for i in idxs])


@settings(max_examples=250, deadline=None)
@given(small_presentations())
def test_diagnostics_match_oracle(pres):
    rep = diagnostics(pres)
    want = oracle_diagnostics(pres)
    got = {
        "double_edge_count": rep.double_edge_count,
        "type_counts": rep.type_counts,
        "component_count": rep.component_count,
        "max_component_size": rep.max_component_size,
        "degree1_per_component": rep.degree1_per_component,
        "low_exposure_components": rep.low_exposure_components,
        "type2_component_multi_meet": rep.type2_component_multi_meet,
        "components_meeting_two_type2": rep.components_meeting_two_type2,
        "type2_matching_violations": rep.type2_matching_violations,
    }
    assert got == want


def unique_rows_double_edges(pres):
    """Double edges counted with np.unique(axis=0) on each support class."""
    gens = np.sort(np.abs(pres.relator_matrix), axis=1)
    width = (np.diff(gens, axis=1) != 0).sum(axis=1) + 1
    count = 0
    for d in np.unique(width):
        rows = gens[width == d]
        keep = np.ones(rows.shape, dtype=bool)
        keep[:, 1:] = np.diff(rows, axis=1) != 0
        sup = rows[keep].reshape(len(rows), int(d))
        _, mult = np.unique(sup, axis=0, return_counts=True)
        count += int((mult > 1).sum())
    return count


def two_column_support_presentation():
    # at m=10^4, (m+1)^5 > 2^63, so five-vertex supports need two key
    # columns; each group shares one type-3 and one type-2 support
    rels = []
    for i in range(60):
        a = [9999 - 7 * i, 9000 - 5 * i, 5000 + 3 * i, 40 + i, 1 + i]
        rels += [tuple(a), (a[1], a[0], a[2], a[3], a[4]),
                 (a[0], -a[1], a[2], a[3], -a[4])]
        if i % 3 == 0:
            rels.append((a[0], a[0], a[1], a[2], a[3]))
            rels.append((a[1], a[0], a[0], a[2], a[3]))
    return make_presentation(10**4, 5, rels)


# sha256 prefixes of the sorted JSON of diagnostics(...).to_json_dict()
GOLDEN_DIAGNOSTICS = [
    ("binomial", 6, 3, 0.05, 1, 17, "3742074293365748"),
    ("binomial", 6, 3, 0.05, 2, 18, "50a9eedab9eaca41"),
    ("binomial", 4, 5, 0.01, 3, 9, "f8cd07323c173f03"),
    ("binomial", 4, 5, 0.05, 4, 11, "8bee895d0a9a22d1"),
    ("positive", 5, 4, 0.1, 5, 14, "58d7eb86857e971b"),
    ("binomial", 8, 4, 0.01, 6, 126, "906d2f850712fbd2"),
    ("binomial", 300, 3, 2e-5, 7, 5, "a4b9baca0d696b01"),
    ("binomial", 2000, 4, 2e-10, 8, 0, "5c4a700194449c8d"),
    ("manual", 10**4, 5, None, None, 80, "62fdb177268a3416"),
    # 19178 type-3 edges at m=300: components labelled on a sample first
    ("binomial", 300, 4, 1.5e-7, 9, 2, "7a78bb4d2e3fde0e"),
]


@pytest.mark.parametrize("tag, m, ell, param, seed, doubles, digest",
                         GOLDEN_DIAGNOSTICS)
def test_golden_diagnostics(tag, m, ell, param, seed, doubles, digest):
    if tag == "manual":
        pres = two_column_support_presentation()
    else:
        pres = sample(tag, ModelParams(m, ell, param, seed))
    got = diagnostics(pres).to_json_dict()
    assert got["double_edge_count"] == unique_rows_double_edges(pres) == doubles
    text = json.dumps(got, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest


@settings(max_examples=120, deadline=None)
@given(small_presentations())
def test_structural_invariants(pres):
    rep = diagnostics(pres)
    assert sum(rep.type_counts) == len(pres)
    h = build(pres)
    # every type-3 support shows up in the uniform part
    uniform = {tuple(row) for row in h.uniform_edge_rows()}
    for r in pres.relators:
        sup = tuple(sorted({abs(x) for x in r}))
        if len(sup) == pres.ell:
            assert sup in uniform
    flat = sorted(v for comp in components(h) for v in comp)
    assert flat == list(range(1, pres.m + 1))


@settings(max_examples=200, deadline=None)
@given(small_presentations())
@example(pres_of(3, 4, [(1, 2, -1, 3), (1, -2, -1, 2), (2, 2, 2, 2)]))
@example(pres_of(2, 1, []))
@example(pres_of(4, 4, []))
def test_incidence_index_against_direct_counts(pres):
    h = build(pres)
    assert build(pres) is h
    m = pres.m
    # the index rows are the relators' letters in the letter order
    for word, gens, signs in zip(pres.relators, h.gens, h.signs):
        assert sorted(word, key=letter_key) == (gens * signs).tolist()
    occurrences = Counter(abs(x) for r in pres.relators for x in r)
    assert h.counts.tolist() == [0] + [occurrences[g] for g in range(1, m + 1)]
    assert unused_generators(pres).tolist() == sorted(
        set(range(1, m + 1)) - set(occurrences))

    rows, cols, vals, row_ptr = _exponent_entries(pres)
    assert all(a.dtype == np.int64 for a in (rows, cols, vals, row_ptr))
    assert (vals != 0).all()
    assert (np.diff(rows * m + cols) > 0).all()  # sorted by (row, column)
    want = {}
    for i, word in enumerate(pres.relators):
        for x in word:
            want[(i, abs(x) - 1)] = want.get((i, abs(x) - 1), 0) + \
                (1 if x > 0 else -1)
    want = {key: e for key, e in want.items() if e}
    assert dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())) == want
    nonzero_rows = sorted({i for i, _ in want})
    assert row_ptr[0] == 0 and row_ptr[-1] == len(rows)
    assert len(row_ptr) == len(nonzero_rows) + 1
    for j, i in enumerate(nonzero_rows):
        assert row_ptr[j] < row_ptr[j + 1]
        assert (rows[row_ptr[j]:row_ptr[j + 1]] == i).all()

    # the arrays are shared by every analysis, so none can be written
    for array in (h.gens, h.signs, h.counts, h.run_starts, h.distinct):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


# ---------------------------------------------------------------- sublemma

def test_edge_lower_bound_examples():
    assert verify_edge_lower_bound(3, 4)   # ceil(7/3)=3 >= 2.4
    assert verify_edge_lower_bound(3, 6)   # ceil(11/3)=4 >= 3.6
    assert verify_edge_lower_bound(4, 5)   # ceil(9/4)=3 >= 2


def test_edge_lower_bound_domain():
    with pytest.raises(DomainError):
        verify_edge_lower_bound(2, 5)
    with pytest.raises(DomainError):
        verify_edge_lower_bound(3, 3)


def test_edge_lower_bound_exhaustive():
    for ell in range(3, 21):
        assert all(verify_edge_lower_bound(ell, k)
                   for k in range(ell + 1, 10_001))


# ------------------------------------------------------------ sparse trend

def test_max_component_logarithmic_trend():
    # below the sparse-regime constant 1/(2^3 * 3! * 2) = 1/96 the
    # largest component of the uniform part should grow at most
    # logarithmically in m; check the regression slope against log2(m)
    c = 0.005
    sizes = []
    ms = [2**7, 2**9, 2**11, 2**12]
    for i, m in enumerate(ms):
        vals = []
        for t in range(4):
            params = ModelParams(m=m, ell=3, param=c / m**2,
                                 seed=7_000 + 10 * i + t)
            vals.append(diagnostics(sample_binomial(params)).max_component_size)
        sizes.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log2(ms), sizes, 1)[0])
    assert slope < 4.0
    assert sizes[-1] <= 6 * np.log2(ms[-1])
