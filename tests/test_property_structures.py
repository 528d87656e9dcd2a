"""Property-based tests (hypothesis) on core data structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import graph, pq
from repro.common.distance import l2_sqr, l2_sqr_batch
from repro.common.heap import BoundedMaxHeap, NaiveTopK, exact_topk, offer_topk
from repro.pgsim.page import Page, PageFullError
from repro.pgsim.tuple_format import Column, decode_column, decode_tuple, encode_tuple
from repro.specialized.hnsw import ArrayGraphStore

# ----------------------------------------------------------------------
# heaps
# ----------------------------------------------------------------------
distances = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)


@given(distances, st.integers(min_value=1, max_value=50))
def test_bounded_heap_equals_sorted_prefix(dists, k):
    """The k-heap's survivors are exactly the k smallest values."""
    heap = BoundedMaxHeap(k)
    for i, d in enumerate(dists):
        heap.push(d, i)
    got = [n.distance for n in heap.results()]
    assert got == sorted(dists)[: min(k, len(dists))]


@given(distances, st.integers(min_value=1, max_value=50))
def test_naive_and_bounded_heaps_agree(dists, k):
    """RC#6 is a cost difference, never a result difference.

    Identical distance values may tie-break to different ids, so the
    invariant is on distances (and on ids when all distances differ).
    """
    naive, bounded = NaiveTopK(k), BoundedMaxHeap(k)
    for i, d in enumerate(dists):
        naive.push(d, i)
        bounded.push(d, i)
    n_res, b_res = naive.results(), bounded.results()
    assert [n.distance for n in n_res] == [n.distance for n in b_res]
    if len(set(dists)) == len(dists):
        assert [n.vector_id for n in n_res] == [n.vector_id for n in b_res]


@given(distances, st.integers(min_value=1, max_value=20))
def test_exact_topk_matches_heap(dists, k):
    arr = np.asarray(dists, dtype=np.float64)
    heap = BoundedMaxHeap(k)
    for i, d in enumerate(arr.tolist()):
        heap.push(d, i)
    top = exact_topk(arr, k)
    assert [n.distance for n in top] == [n.distance for n in heap.results()]
    if len(set(dists)) == len(dists):
        assert [n.vector_id for n in top] == [n.vector_id for n in heap.results()]


#: Few distinct values, so most distances tie.
tied_distances = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=80)


@given(tied_distances, st.integers(min_value=1, max_value=30), st.randoms())
def test_bounded_heap_keeps_smallest_pairs_whatever_the_order(dists, k, random):
    """Ties resolve to the smaller id however the candidates arrive."""
    pairs = [(d, i) for i, d in enumerate(dists)]
    random.shuffle(pairs)
    heap = BoundedMaxHeap(k)
    for d, i in pairs:
        heap.push(d, i)
    assert [(n.distance, n.vector_id) for n in heap.results()] == sorted(pairs)[:k]


@given(tied_distances, st.integers(min_value=1, max_value=30), st.randoms(), st.data())
def test_per_list_offers_and_exact_topk_keep_the_tie_rule(dists, k, random, data):
    """Offering lists one at a time (partial-selected per list) and the
    dense ``exact_topk`` both equal the ``(distance, id)`` prefix."""
    ids = list(range(len(dists)))
    random.shuffle(ids)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ids)), max_size=4)))
    heap = BoundedMaxHeap(k)
    for lo, hi in zip([0, *cuts], [*cuts, len(ids)]):
        part = np.asarray(ids[lo:hi], dtype=np.int64)
        offer_topk(heap, np.asarray(dists, dtype=np.float32)[part], part)
    expected = sorted((d, i) for i, d in enumerate(dists))[:k]
    assert [(n.distance, n.vector_id) for n in heap.results()] == expected
    top = exact_topk(np.asarray(dists), k)
    assert [(n.distance, n.vector_id) for n in top] == expected


# ----------------------------------------------------------------------
# HNSW neighbor-list shrink
# ----------------------------------------------------------------------
def _reference_shrink(store, owner, candidate_ids, capacity):
    """The diversity heuristic as a pairwise loop: a candidate is kept
    when ``all()`` kept neighbors are at least as far from it as the
    owner is, then nearest-first fills what is left."""
    owner_vec = store.vector(owner)
    cand_mat = store.vectors(candidate_ids)
    diff = cand_mat - owner_vec
    to_owner = np.einsum("ij,ij->i", diff, diff)
    sq = np.einsum("ij,ij->i", cand_mat, cand_mat)
    cross_rows = (sq[:, None] + sq[None, :] - 2.0 * (cand_mat @ cand_mat.T)).tolist()
    owner_dists = to_owner.tolist()
    order = np.argsort(to_owner, kind="stable").tolist()
    kept = []
    for idx in order:
        if len(kept) >= capacity:
            break
        if all(cross_rows[idx][j] >= owner_dists[idx] for j in kept):
            kept.append(idx)
    for idx in order:
        if len(kept) >= capacity:
            break
        if idx not in kept:
            kept.append(idx)
    return [candidate_ids[i] for i in kept]


@st.composite
def shrink_cases(draw):
    """An owner plus 1-24 candidates, coordinates mostly from a small
    grid (tied distances, duplicate vectors), sometimes NaN or inf."""
    dim = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=24))
    elems = st.one_of(
        st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
        st.floats(min_value=-10, max_value=10, width=32),
        st.sampled_from([float("nan"), float("inf")]),
    )
    grid = st.lists(elems, min_size=dim, max_size=dim)
    pool = draw(st.lists(grid, min_size=1, max_size=n + 1))
    rows = draw(st.lists(st.sampled_from(pool) | grid, min_size=n + 1, max_size=n + 1))
    capacity = draw(st.integers(min_value=1, max_value=n + 1))
    return np.asarray(rows, dtype=np.float32), capacity


@given(shrink_cases(), st.randoms())
@settings(max_examples=300, deadline=None)
def test_shrink_equals_the_pairwise_reference(case, random):
    vectors, capacity = case
    store = ArrayGraphStore(vectors.shape[1])
    for vec in vectors:
        store.add_node(vec, 0)
    candidates = list(range(1, len(vectors)))
    random.shuffle(candidates)
    before = store.counters.distance_computations
    with np.errstate(invalid="ignore", over="ignore"):
        got = graph._shrink_neighbor_list(store, 0, candidates, capacity)
        expected = _reference_shrink(store, 0, candidates, capacity)
    assert got == expected
    assert store.counters.distance_computations - before == len(candidates) * (
        len(candidates) + 1
    )


# ----------------------------------------------------------------------
# distance kernels
# ----------------------------------------------------------------------
@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=32))
    elems = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)
    a = draw(st.lists(elems, min_size=dim, max_size=dim))
    b = draw(st.lists(elems, min_size=dim, max_size=dim))
    return np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)


@given(vector_pairs())
def test_l2_symmetry_and_nonnegativity(pair):
    a, b = pair
    assert l2_sqr(a, b) >= 0.0
    assert l2_sqr(a, b) == pytest.approx(l2_sqr(b, a), rel=1e-5, abs=1e-4)
    assert l2_sqr(a, a) == 0.0


@given(vector_pairs())
def test_batch_kernel_matches_scalar(pair):
    a, b = pair
    batch = l2_sqr_batch(a.reshape(1, -1), b.reshape(1, -1))[0, 0]
    # The SGEMM decomposition loses precision to cancellation when the
    # operands' norms dwarf their distance (a real property of the
    # trick, present in Faiss too) — tolerate error proportional to
    # the norms, not the distance.
    cancellation = float((a * a).sum() + (b * b).sum())
    assert batch == pytest.approx(l2_sqr(a, b), rel=1e-3, abs=1e-4 * cancellation + 1e-3)


# ----------------------------------------------------------------------
# slotted pages
# ----------------------------------------------------------------------
@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=30))
@settings(max_examples=50)
def test_page_insert_roundtrip(items):
    page = Page.init(4096)
    stored = []
    for item in items:
        try:
            off = page.insert_item(item)
        except PageFullError:
            break
        stored.append((off, item))
    for off, item in stored:
        assert page.get_item(off) == item
    assert page.item_count == len(stored)


@given(
    st.lists(st.binary(min_size=1, max_size=64), min_size=2, max_size=20),
    st.data(),
)
@settings(max_examples=50)
def test_page_delete_then_defragment_preserves_live(items, data):
    page = Page.init(4096)
    offs = [page.insert_item(item) for item in items]
    n_delete = data.draw(st.integers(min_value=1, max_value=len(offs) - 1))
    victims = set(offs[:n_delete])
    for off in victims:
        page.delete_item(off)
    page.defragment()
    for off, item in zip(offs, items):
        if off in victims:
            assert page.is_dead(off)
        else:
            assert page.get_item(off) == item


# ----------------------------------------------------------------------
# tuple codec
# ----------------------------------------------------------------------
_schema = [
    Column.from_sql("a", "int"),
    Column.from_sql("b", "float"),
    Column.from_sql("c", "text"),
    Column.from_sql("v", "float[]"),
]


@st.composite
def rows(draw):
    a = draw(st.one_of(st.none(), st.integers(min_value=-(2**31), max_value=2**31 - 1)))
    b = draw(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)))
    c = draw(st.one_of(st.none(), st.text(max_size=40)))
    v_list = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
                min_size=1,
                max_size=16,
            ),
        )
    )
    v = None if v_list is None else np.asarray(v_list, dtype=np.float32)
    return [a, b, c, v]


@given(rows())
@settings(max_examples=100)
def test_tuple_roundtrip(row):
    data = encode_tuple(_schema, row)
    got = decode_tuple(_schema, data)
    assert got[0] == row[0]
    if row[1] is None:
        assert got[1] is None
    else:
        assert got[1] == pytest.approx(row[1], rel=1e-12)
    assert got[2] == row[2]
    if row[3] is None:
        assert got[3] is None
    else:
        np.testing.assert_array_equal(got[3], row[3])


@given(rows(), st.integers(min_value=0, max_value=3))
@settings(max_examples=100)
def test_decode_column_agrees_with_full_decode(row, idx):
    data = encode_tuple(_schema, row)
    full = decode_tuple(_schema, data)
    single = decode_column(_schema, data, idx)
    if isinstance(full[idx], np.ndarray):
        np.testing.assert_array_equal(single, full[idx])
    else:
        assert single == full[idx]


# ----------------------------------------------------------------------
# product quantization
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_pq_adc_tables_always_agree(seed):
    """naive vs optimized ADC tables agree for any seed (RC#7 invariant)."""
    rng = np.random.default_rng(seed)
    training = rng.normal(size=(80, 8)).astype(np.float32)
    codebook = pq.train_codebook(training, m=2, c_pq=8, seed=int(seed % 1000))
    query = rng.normal(size=8).astype(np.float32)
    np.testing.assert_allclose(
        pq.naive_adc_table(codebook, query),
        pq.optimized_adc_table(codebook, query),
        rtol=1e-3,
        atol=1e-3,
    )


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_pq_codes_in_range(seed):
    rng = np.random.default_rng(seed)
    training = rng.normal(size=(50, 8)).astype(np.float32)
    codebook = pq.train_codebook(training, m=4, c_pq=16, seed=3)
    codes = pq.encode(codebook, rng.normal(size=(20, 8)).astype(np.float32))
    assert codes.shape == (20, 4)
    assert int(codes.max()) < 16
