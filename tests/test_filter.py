"""Tests for filtered vector search (repro.filter + the filter= paths).

The central guarantees:

* **predicate correctness** — every id a filtered query returns
  satisfies the predicate, on every back-end, at every selectivity;
* **sharded exactness** — filtered sharded-bruteforce returns
  bitwise-identical ids to brute force over the filtered subset, with
  distances equal to float tolerance (hypothesis property over random
  predicates at selectivities {0.01, 0.1, 0.5, 1.0}, euclidean and
  cosine);
* **cache correctness** — the predicate's canonical fingerprint is part
  of the result-cache key: the same query under a different predicate
  must miss;
* **persistence** — the attribute store rides along with ``save`` /
  ``load_index`` and filtered answers are identical after reload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import load_index, make_index
from repro.filter import (
    And,
    AttributeStore,
    Eq,
    FilterPlanner,
    In,
    Not,
    Or,
    Predicate,
    Range,
    predicate_from_dict,
    random_attribute_store,
    resolve_filter,
)
from repro.service import QueryRequest, Router, SearchService
from repro.utils.distances import pairwise_topk
from repro.utils.exceptions import ValidationError


@pytest.fixture(scope="module")
def store() -> AttributeStore:
    s = AttributeStore()
    s.add_numeric("price", [9.5, 120.0, 42.0, np.nan, 77.0, 3.0])
    s.add_categorical("shop", ["a", "b", "a", None, "c", "b"])
    s.add_tags("labels", [["new"], [], ["new", "sale"], ["sale"], [], ["x"]])
    return s


# ---------------------------------------------------------------------- #
# the attribute store
# ---------------------------------------------------------------------- #
class TestAttributeStore:
    def test_columns_and_kinds(self, store):
        assert store.n_rows == 6
        assert store.columns() == ["labels", "price", "shop"]
        assert store.column_kind("price") == "numeric"
        assert store.column_kind("shop") == "categorical"
        assert store.column_kind("labels") == "tags"

    def test_unknown_column_and_bad_shapes(self, store):
        with pytest.raises(ValidationError, match="unknown attribute"):
            Eq("brand", "a").mask(store)
        s = AttributeStore()
        s.add_numeric("a", [1.0, 2.0])
        with pytest.raises(ValidationError, match="rows"):
            s.add_numeric("b", [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="already exists"):
            s.add_numeric("a", [0.0, 0.0])

    def test_missing_values_never_match(self, store):
        # NaN price, None shop (row 3) match no predicate of any shape.
        assert not Range("price", low=-1e9, high=1e9).mask(store)[3]
        assert not Eq("shop", "None").mask(store)[3]
        assert not In("shop", ["a", "b", "c"]).mask(store)[3]

    def test_extend_appends_rows_and_new_vocabulary(self):
        s = AttributeStore()
        s.add_numeric("price", [1.0])
        s.add_categorical("shop", ["a"])
        s.add_tags("labels", [["t1"]])
        s.extend({"price": [2.0, 3.0], "shop": ["z", "a"], "labels": [["t2"], []]})
        assert s.n_rows == 3
        np.testing.assert_array_equal(Eq("shop", "z").mask(s), [False, True, False])
        np.testing.assert_array_equal(Eq("labels", "t2").mask(s), [False, True, False])
        with pytest.raises(ValidationError, match="missing values"):
            s.extend({"price": [4.0]})
        with pytest.raises(ValidationError, match="ragged"):
            s.extend({"price": [4.0], "shop": ["a", "b"], "labels": [[]]})

    def test_numeric_predicates_reject_non_numeric_values(self, store):
        with pytest.raises(ValidationError, match="numeric"):
            Eq("price", "cheap").mask(store)
        with pytest.raises(ValidationError, match="numeric"):
            In("price", ["cheap", "pricey"]).mask(store)
        with pytest.raises(ValidationError, match="numeric"):
            Range("price", high="cheap")

    def test_extend_is_atomic_on_bad_values(self):
        # A cast failure on a later column must leave every column (and
        # the version counter) untouched — no torn store, no stale masks.
        s = AttributeStore()
        s.add_categorical("shop", ["a", "b"])
        s.add_numeric("price", [1.0, 2.0])
        version = s.version
        with pytest.raises(ValidationError, match="numeric"):
            s.extend({"shop": ["c"], "price": ["not-a-number"]})
        assert s.n_rows == 2
        assert len(s.column("shop")) == len(s.column("price")) == 2
        assert s.version == version
        np.testing.assert_array_equal(
            (Eq("shop", "a") & Range("price", high=1.5)).mask(s), [True, False]
        )

    def test_extend_accepts_iterators_without_corruption(self):
        s = AttributeStore()
        s.add_numeric("p", [1.0, 2.0]).add_numeric("q", [5.0, 6.0])
        s.extend({"p": [3.0], "q": (x for x in [7.0])})
        assert s.n_rows == 3
        assert len(s.column("p")) == len(s.column("q")) == 3
        np.testing.assert_array_equal(
            (Range("p", high=10.0) & Range("q", high=10.0)).mask(s),
            [True, True, True],
        )

    def test_cached_mask_reuses_until_store_mutates(self):
        s = AttributeStore().add_numeric("v", [0.0, 1.0, 2.0])
        predicate = Range("v", high=1.0)
        first = predicate.cached_mask(s)
        assert predicate.cached_mask(s) is first
        s.extend({"v": [0.5]})
        second = predicate.cached_mask(s)
        assert second is not first and second.shape[0] == 4

    def test_state_round_trip(self, store):
        config, arrays = store.to_state()
        again = AttributeStore.from_state(config, arrays)
        assert again.n_rows == store.n_rows
        for predicate in (Eq("shop", "a"), Range("price", high=50.0), In("labels", ["sale"])):
            np.testing.assert_array_equal(predicate.mask(again), predicate.mask(store))


# ---------------------------------------------------------------------- #
# the predicate algebra
# ---------------------------------------------------------------------- #
class TestPredicates:
    def test_leaf_masks(self, store):
        np.testing.assert_array_equal(
            Eq("shop", "a").mask(store), [True, False, True, False, False, False]
        )
        np.testing.assert_array_equal(
            In("shop", ["b", "c"]).mask(store), [False, True, False, False, True, True]
        )
        np.testing.assert_array_equal(
            Range("price", low=10.0, high=80.0).mask(store),
            [False, False, True, False, True, False],
        )
        # tags: Eq = has tag, In = has any
        np.testing.assert_array_equal(
            Eq("labels", "sale").mask(store), [False, False, True, True, False, False]
        )
        np.testing.assert_array_equal(
            In("labels", ["new", "x"]).mask(store),
            [True, False, True, False, False, True],
        )

    def test_combinators_and_operators(self, store):
        both = Eq("shop", "a") & Range("price", high=40.0)
        np.testing.assert_array_equal(
            both.mask(store), [True, False, False, False, False, False]
        )
        either = Eq("shop", "c") | Eq("labels", "x")
        np.testing.assert_array_equal(
            either.mask(store), [False, False, False, False, True, True]
        )
        negated = ~Eq("shop", "a")
        np.testing.assert_array_equal(
            negated.mask(store), [False, True, False, True, True, True]
        )

    def test_fingerprint_is_canonical(self):
        a, b = Eq("shop", "a"), Range("price", high=40.0)
        assert And(a, b).fingerprint() == And(b, a).fingerprint()
        assert Or(a, b) == Or(b, a)
        assert In("shop", ["x", "y"]) == In("shop", ["y", "x", "y"])
        # numerically-equal values of different types are distinct
        # predicates (their masks differ on categorical columns)
        assert In("c", [1, True]) != In("c", [1])
        assert In("c", [1]) != In("c", [True])
        assert In("c", [1, 1]) == In("c", [1])
        assert And(a, b) != Or(a, b)
        assert Not(a) != a
        # nesting flattens, so grouping does not split the cache
        assert And(a, And(b, Not(a))) == And(a, b, Not(a))
        assert len({And(a, b), And(b, a)}) == 1

    def test_dict_round_trip(self):
        predicate = (
            Eq("shop", "a") & Range("price", high=40.0)
        ) | ~In("labels", ["sale", "new"])
        rebuilt = predicate_from_dict(predicate.as_dict())
        assert isinstance(rebuilt, Predicate)
        assert rebuilt == predicate

    def test_validation(self):
        with pytest.raises(ValidationError):
            Range("price")  # no bounds
        with pytest.raises(ValidationError):
            Range("price", low=2.0, high=1.0)
        with pytest.raises(ValidationError):
            In("shop", [])
        with pytest.raises(ValidationError):
            Eq("shop", object())
        with pytest.raises(ValidationError):
            predicate_from_dict({"op": "xor"})
        with pytest.raises(ValidationError, match="Range"):
            # tags columns do not support ranges
            Range("labels", high=1.0).mask(
                AttributeStore().add_tags("labels", [["a"]])
            )


# ---------------------------------------------------------------------- #
# filter resolution + planning
# ---------------------------------------------------------------------- #
class TestResolveAndPlan:
    def test_resolve_forms(self):
        index = make_index("bruteforce").build(np.eye(4))
        index.set_attributes(AttributeStore().add_numeric("v", [0.0, 1.0, 2.0, 3.0]))
        mask = resolve_filter(Range("v", high=1.0), index, 4)
        np.testing.assert_array_equal(mask, [True, True, False, False])
        np.testing.assert_array_equal(
            resolve_filter(np.array([True, False, True, False]), index, 4),
            [True, False, True, False],
        )
        np.testing.assert_array_equal(
            resolve_filter([0, 3], index, 4), [True, False, False, True]
        )
        assert resolve_filter(None, index, 4) is None

    def test_resolve_errors(self):
        index = make_index("bruteforce").build(np.eye(4))
        with pytest.raises(ValidationError, match="no attribute store"):
            index.batch_query(np.eye(4)[:1], 2, filter=Eq("shop", "a"))
        with pytest.raises(ValidationError, match="entries"):
            resolve_filter(np.array([True, False]), index, 4)
        with pytest.raises(ValidationError, match="allowlist"):
            resolve_filter(np.array([0, 9]), index, 4)
        with pytest.raises(ValidationError, match="Predicate"):
            resolve_filter(np.array([0.5, 0.5]), index, 4)

    def test_empty_allowlist_matches_nothing(self):
        index = make_index("bruteforce").build(np.eye(4))
        ids, distances = index.batch_query(np.eye(4)[:2], 3, filter=[])
        assert (ids == -1).all() and np.isinf(distances).all()
        request = QueryRequest(k=3, filter=[])
        assert request.filter.size == 0  # accepted, not a dtype error

    def test_ambiguous_zero_one_filter_is_rejected(self):
        # a bool mask that lost its dtype (e.g. via JSON) must not be
        # silently read as the allowlist {0, 1}
        index = make_index("bruteforce").build(np.eye(6))
        with pytest.raises(ValidationError, match="ambiguous"):
            index.batch_query(np.eye(6)[:1], 2, filter=[1, 0, 1, 0, 1, 0])
        # a genuine short allowlist of low ids still works
        ids, _ = index.batch_query(np.eye(6)[:1], 2, filter=[0, 1])
        assert set(ids[0]) <= {0, 1}
        # on a 1- or 2-point index every allowlist is full-length and
        # {0,1}-valued, so the guard stands down
        two = make_index("bruteforce").build(np.eye(2))
        ids, _ = two.batch_query(np.eye(2)[:1], 1, filter=np.array([0, 1]))
        assert ids[0, 0] in (0, 1)

    def test_predicate_shorter_store_pads_false_on_mutable_only(self):
        # Mutable indexes: vectors added after the store was written
        # match nothing until AttributeStore.extend catches up.
        sharded = make_index("sharded-bruteforce", n_shards=2).build(np.eye(4))
        sharded.set_attributes(AttributeStore().add_numeric("v", [0.0, 1.0]))
        mask = resolve_filter(Range("v", low=-1.0), sharded, 4)
        np.testing.assert_array_equal(mask, [True, True, False, False])
        # Immutable indexes: a short store is a caller bug, not a lag —
        # it must fail loudly instead of silently excluding tail ids.
        bf = make_index("bruteforce").build(np.eye(4))
        with pytest.raises(ValidationError, match="one row per id"):
            bf.set_attributes(AttributeStore().add_numeric("v", [0.0, 1.0]))

    def test_planner_strategy_selection(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(400, 8))
        planner = FilterPlanner()
        kmeans = make_index("kmeans", n_bins=8, seed=0).build(base)
        hnsw = make_index("hnsw").build(base)
        sparse = np.zeros(400, dtype=bool)
        sparse[:4] = True
        dense = np.ones(400, dtype=bool)
        assert planner.plan(kmeans, sparse, 10).strategy == "prefilter"
        assert planner.plan(kmeans, dense, 10).strategy == "inline"
        assert planner.plan(hnsw, dense, 10).strategy == "postfilter"
        assert planner.plan(hnsw, np.zeros(400, dtype=bool), 10).strategy == "empty"

    def test_exact_index_plans_prefilter_at_every_selectivity(self):
        base = np.random.default_rng(2).normal(size=(200, 8))
        bf = make_index("bruteforce").build(base)
        planner = FilterPlanner()
        for allowed in (2, 100, 200):
            mask = np.zeros(200, dtype=bool)
            mask[:allowed] = True
            assert planner.plan(bf, mask, 10).strategy == "prefilter"

    def test_forced_strategy_override(self):
        from repro.filter import filtered_search

        rng = np.random.default_rng(3)
        base = rng.normal(size=(200, 8))
        queries = rng.normal(size=(4, 8))
        kmeans = make_index("kmeans", n_bins=4, seed=0).build(base)
        mask = np.zeros(200, dtype=bool)
        mask[::2] = True
        planned_ids, _ = filtered_search(
            kmeans, queries, 5, mask, query_kwargs={"n_probes": 4}
        )
        forced_ids, _ = filtered_search(
            kmeans, queries, 5, mask, query_kwargs={"n_probes": 4}, strategy="prefilter"
        )
        assert mask[planned_ids[planned_ids >= 0]].all()
        # the forced pre-filter is the exact answer over the subset
        allowed = np.flatnonzero(mask)
        exact_local, _ = pairwise_topk(queries, base[allowed], 5)
        np.testing.assert_array_equal(forced_ids, allowed[exact_local])
        with pytest.raises(ValidationError, match="strategy"):
            filtered_search(kmeans, queries, 5, mask, strategy="bogus")
        # forcing a strategy the index cannot execute fails loudly
        hnsw = make_index("hnsw").build(base)
        with pytest.raises(ValidationError, match="inline"):
            filtered_search(hnsw, queries, 5, mask, strategy="inline")

    def test_public_filtered_search_never_returns_tombstoned_ids(self):
        # Calling the exported helper directly on a mutable index must
        # respect tombstones exactly like index.batch_query(filter=) does.
        from repro.filter import filtered_search

        rng = np.random.default_rng(11)
        base = rng.normal(size=(120, 8))
        queries = rng.normal(size=(4, 8))
        sharded = make_index(
            "sharded-bruteforce", n_shards=2, compact_threshold=None
        ).build(base)
        sharded.set_attributes(random_attribute_store(120, seed=0))
        removed = np.arange(50)
        sharded.remove(removed)
        predicate = Range("price", high=10.0)  # low selectivity -> prefilter
        ids, _ = filtered_search(sharded, queries, 5, predicate)
        assert not np.isin(ids[ids >= 0], removed).any()
        expected, _ = sharded.batch_query(queries, 5, filter=predicate)
        np.testing.assert_array_equal(ids, expected)

    def test_postfilter_stops_when_candidate_pool_is_exhausted(self):
        # With n_probes fixed, a larger fetch cannot add candidates; the
        # retry loop must finalise exhausted rows instead of re-querying
        # them all the way up to fetch == n_rows.
        from repro.filter.planner import DEFAULT_PLANNER

        rng = np.random.default_rng(5)
        base = rng.normal(size=(400, 8))
        queries = rng.normal(size=(6, 8))
        index = make_index("ivf-flat", n_lists=8, seed=0).build(base)
        calls = {"n": 0}
        original = index.batch_query

        def counting(batch, k=10, **kw):
            calls["n"] += 1
            return original(batch, k, **kw)

        index.batch_query = counting
        mask = np.zeros(400, dtype=bool)
        mask[::40] = True  # sparse: most probed cells hold few survivors
        ids, _ = DEFAULT_PLANNER.filtered_search(
            index, queries, 10, mask,
            query_kwargs={"n_probes": 1}, strategy="postfilter",
        )
        del index.batch_query
        assert mask[ids[ids >= 0]].all()
        # pool ~50 candidates/row at n_probes=1: fetch doubles 10→20→40→80,
        # where -1 padding reveals exhaustion and finalises every row —
        # without the early exit the loop runs on to fetch == 400 (7 rounds)
        assert calls["n"] <= 4, f"pool-exhausted rows were re-queried {calls['n']} times"

    def test_postfilter_overfetch_reaches_full_scan(self):
        # An adversarial mask allowing only the *farthest* points forces
        # the multiplicative retry loop to widen until candidates are
        # exhausted — and the result must still satisfy the mask exactly.
        rng = np.random.default_rng(1)
        base = rng.normal(size=(300, 8))
        queries = rng.normal(size=(3, 8))
        hnsw = make_index("hnsw").build(base)
        exact_all, _ = pairwise_topk(queries, base, 300)
        worst = np.unique(exact_all[:, -30:])  # farthest ids per query
        mask = np.zeros(300, dtype=bool)
        mask[worst] = True
        ids, _ = hnsw.batch_query(queries, 5, filter=mask)
        assert (ids >= 0).all()
        assert mask[ids].all()


# ---------------------------------------------------------------------- #
# every back-end returns only matching ids
# ---------------------------------------------------------------------- #
FILTERABLE_FAST_BACKENDS = [
    ("bruteforce", {}, {}),
    ("kmeans", dict(n_bins=8, seed=0), dict(n_probes=4)),
    ("ivf-flat", dict(n_lists=8, seed=0), dict(n_probes=4)),
    ("hnsw", {}, {}),
    ("pca-tree", dict(depth=3), dict(n_probes=2)),
    ("sharded-bruteforce", dict(n_shards=3), {}),
    ("sq8", {}, {}),
    ("pq-adc", dict(n_subspaces=4, n_codewords=16, seed=0), {}),
    ("sharded-sq8", dict(n_shards=2), {}),
]


class TestFilteredBackends:
    @pytest.fixture(scope="class")
    def search_setup(self, tiny_dataset):
        store = random_attribute_store(tiny_dataset.n_points, seed=4)
        return tiny_dataset, store

    @pytest.mark.parametrize(
        "name,params,kwargs",
        FILTERABLE_FAST_BACKENDS,
        ids=[entry[0] for entry in FILTERABLE_FAST_BACKENDS],
    )
    def test_every_returned_id_satisfies_predicate(self, search_setup, name, params, kwargs):
        data, store = search_setup
        index = make_index(name, **params).build(data.base)
        index.set_attributes(store)
        for predicate in (
            Range("price", high=1.0),            # ~1% survivors
            Eq("shop", "shop-1"),                # ~20%
            Range("price", high=55.0),           # ~55%
            In("labels", ["label-0", "label-1"]),
        ):
            mask = predicate.mask(store)
            ids, distances = index.batch_query(
                data.queries, 10, filter=predicate, **kwargs
            )
            returned = ids[ids >= 0]
            assert mask[returned].all(), (name, predicate)
            # padding is well-formed: -1 ids pair with inf distances
            assert np.isinf(distances[ids < 0]).all()

    def test_single_query_matches_batch(self, search_setup):
        data, store = search_setup
        index = make_index("kmeans", n_bins=8, seed=0).build(data.base)
        index.set_attributes(store)
        predicate = Eq("shop", "shop-0")
        batch_ids, _ = index.batch_query(data.queries[:1], 5, n_probes=4, filter=predicate)
        one_ids, _ = index.query(data.queries[0], 5, n_probes=4, filter=predicate)
        np.testing.assert_array_equal(one_ids, batch_ids[0])

    def test_filter_never_changes_result_shape(self):
        # k > n_points: filtered and unfiltered answers keep the same
        # column count per index (partition indexes pad to k either way).
        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 4))
        queries = rng.normal(size=(2, 4))
        for name, params in [("kmeans", dict(n_bins=2, seed=0)), ("hnsw", {})]:
            index = make_index(name, **params).build(base)
            plain, _ = index.batch_query(queries, 10)
            filtered, _ = index.batch_query(queries, 10, filter=np.ones(5, dtype=bool))
            assert filtered.shape == plain.shape == (2, 10), name

    def test_empty_predicate_returns_padding(self, search_setup):
        data, store = search_setup
        index = make_index("bruteforce").build(data.base)
        index.set_attributes(store)
        ids, distances = index.batch_query(
            data.queries, 5, filter=Range("price", low=1000.0)
        )
        assert (ids == -1).all() and np.isinf(distances).all()


# ---------------------------------------------------------------------- #
# hypothesis property: filtered sharded == brute force over the subset
# ---------------------------------------------------------------------- #
def _exact_filtered(base, queries, mask, k, metric):
    allowed = np.flatnonzero(mask)
    if allowed.size == 0:
        return (
            np.full((queries.shape[0], k), -1, dtype=np.int64),
            np.full((queries.shape[0], k), np.inf),
        )
    local, distances = pairwise_topk(
        queries, base[allowed], min(k, allowed.size), metric=metric
    )
    ids = allowed[local]
    if ids.shape[1] < k:
        pad = k - ids.shape[1]
        ids = np.pad(ids, ((0, 0), (0, pad)), constant_values=-1)
        distances = np.pad(distances, ((0, 0), (0, pad)), constant_values=np.inf)
    return ids, distances


class TestShardedFilterProperty:
    SELECTIVITIES = (0.01, 0.1, 0.5, 1.0)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_shards=st.sampled_from([2, 3, 5]),
        metric=st.sampled_from(["euclidean", "cosine"]),
    )
    def test_filtered_sharded_matches_bruteforce_over_subset(
        self, seed, n_shards, metric
    ):
        rng = np.random.default_rng(seed)
        n = 300
        base = rng.normal(size=(n, 12))
        queries = rng.normal(size=(6, 12))
        # A random predicate: a uniform score column thresholded at each
        # target selectivity (a random permutation decides who survives).
        score = rng.permutation(n).astype(np.float64) / n
        store = AttributeStore().add_numeric("score", score)
        sharded = make_index(
            "sharded-bruteforce", n_shards=n_shards, metric=metric
        ).build(base)
        sharded.set_attributes(store)
        for selectivity in self.SELECTIVITIES:
            predicate = Range("score", high=selectivity - 0.5 / n)
            mask = predicate.mask(store)
            assert abs(mask.mean() - selectivity) < 1.5 / n
            expected_ids, expected_distances = _exact_filtered(
                base, queries, mask, 10, metric
            )
            got_ids, got_distances = sharded.batch_query(queries, 10, filter=predicate)
            # ids are bitwise-identical; distances match to float tolerance
            # (BLAS accumulation order varies with the scanned matrix shape)
            np.testing.assert_array_equal(got_ids, expected_ids)
            np.testing.assert_allclose(got_distances, expected_distances, rtol=1e-12)

    def test_filtered_quant_matches_bruteforce_over_subset(self):
        # Inline masks over code rows: with the over-fetch budget
        # covering the allowed subset, a quantized backend's filtered
        # answer IS brute force over the subset (the scan is skipped,
        # the subset re-ranks exactly); with the default budget every
        # returned id still satisfies the mask and carries its exact
        # full-precision distance.
        for backend, params in (
            ("sq8", {}),
            ("pq-adc", dict(n_subspaces=4, n_codewords=16, seed=0)),
        ):
            for metric in ("euclidean", "cosine"):
                rng = np.random.default_rng(13)
                n = 300
                base = rng.normal(size=(n, 12))
                queries = rng.normal(size=(6, 12))
                score = rng.permutation(n).astype(np.float64) / n
                attr_store = AttributeStore().add_numeric("score", score)
                index = make_index(backend, metric=metric, **params).build(base)
                index.set_attributes(attr_store)
                stored = base.astype(np.float32)
                from repro.utils.distances import get_metric

                full = get_metric(metric)(queries, stored)
                rows = np.arange(queries.shape[0])[:, None]
                for selectivity in (0.01, 0.1, 0.5):
                    predicate = Range("score", high=selectivity - 0.5 / n)
                    mask = predicate.mask(attr_store)
                    expected_ids, expected_distances = _exact_filtered(
                        stored, queries, mask, 10, metric
                    )
                    got_ids, got_distances = index.batch_query(
                        queries, 10, filter=predicate, rerank=int(mask.sum())
                    )
                    np.testing.assert_array_equal(got_ids, expected_ids)
                    np.testing.assert_allclose(
                        got_distances, expected_distances, rtol=1e-12
                    )
                    got_ids, got_distances = index.batch_query(
                        queries, 10, filter=predicate
                    )
                    returned = got_ids >= 0
                    assert mask[got_ids[returned]].all(), (backend, selectivity)
                    np.testing.assert_allclose(
                        got_distances[returned],
                        full[np.broadcast_to(rows, got_ids.shape)[returned], got_ids[returned]],
                        rtol=1e-12,
                    )

    def test_filtered_sharded_with_mutation(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(200, 8))
        queries = rng.normal(size=(4, 8))
        store = random_attribute_store(200, seed=0)
        sharded = make_index(
            "sharded-bruteforce", n_shards=3, compact_threshold=None
        ).build(base)
        sharded.set_attributes(store)
        predicate = Range("price", low=-1.0)  # everything with a price row
        new_ids = sharded.add(rng.normal(size=(3, 8)))
        # rows without attributes match nothing until the store extends
        ids, _ = sharded.batch_query(queries, 200, filter=predicate)
        assert not np.isin(new_ids, ids).any()
        store.extend(
            {"price": [1.0, 2.0, 3.0], "shop": ["shop-0"] * 3, "labels": [[]] * 3}
        )
        ids, _ = sharded.batch_query(queries, 203, filter=predicate)
        assert np.isin(new_ids, ids).all()
        # tombstones beat the mask: a removed id never comes back
        sharded.remove(new_ids[:1])
        ids, _ = sharded.batch_query(queries, 203, filter=predicate)
        assert not np.isin(new_ids[:1], ids).any()
        # and the merge still matches brute force over (alive & allowed)
        sharded.compact()
        alive_mask = predicate.mask(store) & sharded._alive
        expected_ids, _ = _exact_filtered(
            sharded._data, queries, alive_mask, 10, "euclidean"
        )
        got_ids, _ = sharded.batch_query(queries, 10, filter=predicate)
        np.testing.assert_array_equal(got_ids, expected_ids)


# ---------------------------------------------------------------------- #
# serving: request plumbing, cache correctness, persistence
# ---------------------------------------------------------------------- #
class TestFilteredServing:
    @pytest.fixture(scope="class")
    def served(self, tiny_dataset):
        store = random_attribute_store(tiny_dataset.n_points, seed=4)
        index = make_index("bruteforce").build(tiny_dataset.base)
        index.set_attributes(store)
        return tiny_dataset, store, index

    def test_cache_same_query_different_predicate_must_miss(self, served):
        data, store, index = served
        service = SearchService(index, cache_size=512)
        eq, rng_pred = Eq("shop", "shop-1"), Range("price", high=60.0)
        first = service.search_batch(data.queries, QueryRequest(k=5, filter=And(eq, rng_pred)))
        repeat = service.search_batch(data.queries, QueryRequest(k=5, filter=And(eq, rng_pred)))
        other = service.search_batch(data.queries, QueryRequest(k=5, filter=Eq("shop", "shop-2")))
        unfiltered = service.search_batch(data.queries, QueryRequest(k=5))
        assert first.cache_hits == 0
        assert repeat.cache_hits == data.n_queries
        assert other.cache_hits == 0, "different predicate hit a cached answer"
        assert unfiltered.cache_hits == 0, "unfiltered request hit a filtered answer"
        assert not np.array_equal(repeat.ids, other.ids)
        # semantically equal predicates written differently DO share entries
        commuted = service.search_batch(
            data.queries, QueryRequest(k=5, filter=And(rng_pred, eq))
        )
        assert commuted.cache_hits == data.n_queries

    def test_cache_invalidates_when_attribute_store_changes(self, tiny_dataset):
        # Swapping the store (or extending it) changes what a predicate
        # means — cached filtered answers must not survive either.
        index = make_index("bruteforce").build(tiny_dataset.base)
        n = tiny_dataset.n_points
        store_a = AttributeStore().add_categorical("shop", ["a"] * (n // 2) + ["b"] * (n - n // 2))
        store_b = AttributeStore().add_categorical("shop", ["b"] * (n // 2) + ["a"] * (n - n // 2))
        index.set_attributes(store_a)
        service = SearchService(index, cache_size=256)
        request = QueryRequest(k=5, filter=Eq("shop", "a"))
        service.search_batch(tiny_dataset.queries, request)
        index.set_attributes(store_b)
        swapped = service.search_batch(tiny_dataset.queries, request)
        assert swapped.cache_hits == 0, "stale answers served after set_attributes"
        mask_b = Eq("shop", "a").mask(store_b)
        returned = swapped.ids[swapped.ids >= 0]
        assert mask_b[returned].all()
        # growing the same store must invalidate too (version bump)
        repeat = service.search_batch(tiny_dataset.queries, request)
        assert repeat.cache_hits == tiny_dataset.n_queries
        store_b.add_numeric("price", np.zeros(n))
        grown = service.search_batch(tiny_dataset.queries, request)
        assert grown.cache_hits == 0, "stale answers served after store mutation"

    def test_request_equality_and_hash_with_array_filters(self):
        request = QueryRequest(k=5, filter=np.array([True, False, True]))
        again = QueryRequest.from_dict(request.as_dict())
        assert request == again
        assert hash(request) == hash(again)
        assert request != QueryRequest(k=5, filter=np.array([False, True, True]))
        predicate_request = QueryRequest(k=5, filter=Eq("shop", "a"))
        assert predicate_request == QueryRequest(k=5, filter=Eq("shop", "a"))
        assert len({predicate_request, QueryRequest(k=5, filter=Eq("shop", "a"))}) == 1
        # array-valued metadata must compare, not raise
        left = QueryRequest(k=5, metadata={"m": np.array([1, 2, 3])})
        right = QueryRequest(k=5, metadata={"m": np.array([1, 2, 3])})
        assert left == right
        # array fingerprints are memoized on the frozen request
        assert request.filter_fingerprint() is request.filter_fingerprint()
        # array filters are snapshotted: mutating the caller's array
        # afterwards changes neither the request nor its fingerprint
        source = np.array([True, False, True])
        snapshotted = QueryRequest(k=5, filter=source)
        before = snapshotted.filter_fingerprint()
        source[:] = False
        assert snapshotted.filter_fingerprint() == before
        assert snapshotted.filter.sum() == 2
        with pytest.raises(ValueError):
            snapshotted.filter[0] = False  # read-only snapshot

    def test_request_round_trip_and_fingerprint(self):
        predicate = Eq("shop", "a") & Range("price", high=10.0)
        request = QueryRequest(k=7, filter=predicate)
        again = QueryRequest.from_dict(request.as_dict())
        assert again.cache_key() == request.cache_key()
        mask_request = QueryRequest(k=7, filter=np.array([True, False, True]))
        again = QueryRequest.from_dict(mask_request.as_dict())
        assert again.cache_key() == mask_request.cache_key()
        ids_request = QueryRequest(k=7, filter=np.array([1, 2, 3]))
        again = QueryRequest.from_dict(ids_request.as_dict())
        assert again.cache_key() == ids_request.cache_key()
        with pytest.raises(ValidationError, match="filter"):
            QueryRequest(k=5, filter="price < 10")
        # float-dtype arrays fail at construction rather than silently
        # persisting as an integer allowlist
        with pytest.raises(ValidationError, match="dtype"):
            QueryRequest(k=5, filter=np.array([1.0, 5.0]))
        # unknown serialized filter payloads fail loudly, never silently
        # become an empty match-nothing allowlist
        with pytest.raises(ValidationError, match="unknown filter payload"):
            QueryRequest.from_dict({"k": 5, "filter": {"allow": [1, 2]}})

    def test_unfilterable_index_is_rejected(self, served):
        from repro.api import IndexCapabilities

        data, _, index = served

        class Opaque:
            """A built index whose capabilities do not include filtering."""

            capabilities = IndexCapabilities(probe_parameter=None)
            is_built = True

            def batch_query(self, queries, k=10):
                raise AssertionError("must not be reached")

        service = SearchService(Opaque())
        with pytest.raises(ValidationError, match="filter"):
            service.search_batch(data.queries, QueryRequest(k=5, filter=Eq("shop", "a")))

    def test_router_routes_filtered_requests(self, served):
        data, store, index = served
        router = Router()
        router.add_index("exact", index)
        result = router.search_batch(
            data.queries, QueryRequest(k=5, filter=Eq("shop", "shop-1"))
        )
        mask = Eq("shop", "shop-1").mask(store)
        returned = result.ids[result.ids >= 0]
        assert mask[returned].all()
        assert router.route(filterable=True) is router.service("exact")

    def test_save_load_keeps_attributes_and_answers(self, served, tmp_path):
        data, store, index = served
        predicate = In("labels", ["label-2", "label-3"]) & Range("price", high=80.0)
        expected_ids, expected_distances = index.batch_query(
            data.queries, 10, filter=predicate
        )
        index.save(tmp_path / "flt")
        again = load_index(tmp_path / "flt")
        assert again.attributes is not None
        assert again.attributes.columns() == store.columns()
        got_ids, got_distances = again.batch_query(data.queries, 10, filter=predicate)
        np.testing.assert_array_equal(got_ids, expected_ids)
        np.testing.assert_array_equal(got_distances, expected_distances)
        assert "attributes" in again.stats()

    def test_save_rejects_mismatched_store_attached_before_build(self, tmp_path):
        # attach-before-build skips attach-time validation; save must not
        # produce an artifact that load_index() would then reject
        from repro.utils.exceptions import SerializationError

        index = make_index("bruteforce")
        index.set_attributes(random_attribute_store(100, seed=0))
        index.build(np.random.default_rng(0).normal(size=(200, 8)))
        with pytest.raises(SerializationError, match="attribute store"):
            index.save(tmp_path / "bad")

    def test_resave_without_store_does_not_resurrect_attributes(self, tiny_dataset, tmp_path):
        index = make_index("bruteforce").build(tiny_dataset.base)
        index.set_attributes(random_attribute_store(tiny_dataset.n_points, seed=4))
        index.save(tmp_path / "idx")
        index.set_attributes(None)
        index.save(tmp_path / "idx")
        again = load_index(tmp_path / "idx")
        assert again.attributes is None, "detached store resurrected from stale files"

    def test_router_save_load_round_trips_attributes(self, served, tmp_path):
        data, store, index = served
        router = Router()
        router.add_index(
            "flt",
            index,
            cache_size=32,
            default_request=QueryRequest(k=5, filter=Eq("shop", "shop-1")),
        )
        expected = router.search_batch(data.queries, name="flt")
        router.save(tmp_path / "deployment")
        reloaded = Router.load(tmp_path / "deployment")
        got = reloaded.search_batch(data.queries, name="flt")
        np.testing.assert_array_equal(got.ids, expected.ids)


# ---------------------------------------------------------------------- #
# the eval curve
# ---------------------------------------------------------------------- #
class TestFilterSweep:
    def test_filter_selectivity_curve(self, tiny_dataset):
        from repro.eval import filter_selectivity_curve

        store = random_attribute_store(tiny_dataset.n_points, seed=4)
        points = filter_selectivity_curve(
            "bruteforce",
            tiny_dataset,
            store,
            [
                ("narrow", Range("price", high=2.0)),
                ("wide", Range("price", high=90.0)),
                ("all", Range("price", high=100.0)),  # price is uniform on [0, 100)
            ],
            k=10,
        )
        assert [p.label for p in points] == ["narrow", "wide", "all"]
        for point in points:
            assert point.recall == 1.0  # exact back-end
            assert point.queries_per_second > 0
        # an all-true mask takes the plain query path
        assert [p.strategy for p in points] == ["prefilter", "prefilter", "unfiltered"]
        assert points[0].selectivity < points[1].selectivity < points[2].selectivity == 1.0

    def test_filter_selectivity_curve_accepts_reloaded_store(self, tiny_dataset, tmp_path):
        # load_index re-attaches an equal-content copy of the store; the
        # curve must accept it rather than demanding object identity.
        from repro.eval import filter_selectivity_curve

        store = random_attribute_store(tiny_dataset.n_points, seed=4)
        index = make_index("bruteforce").build(tiny_dataset.base)
        index.set_attributes(store)
        index.save(tmp_path / "idx")
        reloaded = load_index(tmp_path / "idx")
        assert reloaded.attributes is not store
        points = filter_selectivity_curve(
            reloaded, tiny_dataset, store, [("wide", Range("price", high=90.0))], k=10
        )
        assert points[0].recall == 1.0
        other = random_attribute_store(tiny_dataset.n_points, seed=5)
        with pytest.raises(ValidationError, match="different attribute store"):
            filter_selectivity_curve(
                reloaded, tiny_dataset, other, [("wide", Range("price", high=90.0))]
            )

    def test_sweep_accepts_reloaded_store_with_missing_values(self, tiny_dataset, tmp_path):
        # NaN marks a missing numeric value; a reloaded equal-content
        # store containing one must still be recognised as the same store.
        from repro.eval import filter_selectivity_curve

        store = random_attribute_store(tiny_dataset.n_points, seed=4)
        prices = store.column("price").values
        prices[0] = np.nan
        index = make_index("bruteforce").build(tiny_dataset.base)
        index.set_attributes(store)
        index.save(tmp_path / "nan-idx")
        reloaded = load_index(tmp_path / "nan-idx")
        points = filter_selectivity_curve(
            reloaded, tiny_dataset, store, [("wide", Range("price", high=90.0))], k=5
        )
        assert points[0].recall == 1.0

    def test_sweep_detaches_its_temporary_store(self, tiny_dataset):
        # A caller-supplied index must not come back from a sweep with
        # the benchmark's synthetic store attached (a later save() would
        # persist it into the artifact).
        from repro.eval import filter_selectivity_curve

        index = make_index("bruteforce").build(tiny_dataset.base)
        store = random_attribute_store(tiny_dataset.n_points, seed=4)
        filter_selectivity_curve(
            index, tiny_dataset, store, [("wide", Range("price", high=90.0))], k=5
        )
        assert index.attributes is None
