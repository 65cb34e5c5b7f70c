"""Differential suite for quantitative relations.

The MTBDD abstraction path of :meth:`Relation.aggregate` must be
bit-exact against the dict-of-tuples oracle (``_aggregate_tuples``) —
and against the boolean backends' fallback path — for random relations,
for every aggregate, and for the relations of all four whole-program
analyses (points-to, call graph, side effects, hierarchy).  Weights
here are integers, so "bit-exact" means exact equality, not tolerance.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import (
    AnalysisUniverse,
    CallGraph,
    Hierarchy,
    PointsTo,
    SideEffects,
    synthesize,
)
from repro.relations import (
    AGGREGATE_OPS,
    CsvFormatError,
    JeddError,
    Relation,
    Universe,
    WeightedRelation,
)

NUMS = list(range(6))

num_rows = st.sets(
    st.tuples(
        st.sampled_from(NUMS), st.sampled_from(NUMS), st.sampled_from(NUMS)
    ),
    max_size=20,
)


def make_numeric_universe(backend):
    u = Universe(backend=backend)
    d = u.domain("D", len(NUMS))
    for n in NUMS:
        d.intern(n)
    for name in ("a", "b", "c"):
        u.attribute(name, d)
    for pd in ("P1", "P2", "P3"):
        u.physical_domain(pd, d.bits)
    u.finalize()
    return u


def normalize(weights):
    """Weight 0 means absent: the canonical form WeightedRelation keeps."""
    return {k: v for k, v in weights.items() if v != 0}


def groupings():
    for attr in (None, "a", "b"):
        for group_by in ((), ("b",), ("c",), ("b", "c")):
            if attr in group_by:
                continue
            yield attr, group_by


class TestAggregateDifferential:
    """MTBDD diagram path == dict oracle == boolean fallback path."""

    @given(rows=num_rows)
    @settings(max_examples=40, deadline=None)
    def test_all_aggregates_match_oracle(self, rows):
        u = make_numeric_universe("mtbdd")
        rel = Relation.from_tuples(
            u, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
        )
        ub = make_numeric_universe("bdd")
        rel_b = Relation.from_tuples(
            ub, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
        )
        for agg in AGGREGATE_OPS:
            for attr, group_by in groupings():
                if agg != "count" and attr is None:
                    continue
                got = rel.aggregate(agg, attr, group_by)
                needed = set(group_by) | (
                    {attr} if attr is not None else {"a", "b", "c"}
                )
                oracle = rel.project_onto(*needed)._aggregate_tuples(
                    agg, attr, list(group_by)
                )
                assert got.as_dict() == normalize(oracle), (
                    agg, attr, group_by,
                )
                boolean = rel_b.aggregate(agg, attr, group_by)
                assert boolean.as_dict() == normalize(oracle), (
                    agg, attr, group_by,
                )

    @given(rows=num_rows)
    @settings(max_examples=30, deadline=None)
    def test_count_equals_satcount(self, rows):
        u = make_numeric_universe("mtbdd")
        rel = Relation.from_tuples(
            u, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
        )
        assert rel.count() == len(rows)
        ungrouped = rel.aggregate("count")
        assert ungrouped.as_dict() == ({(): len(rows)} if rows else {})

    @given(rows=num_rows)
    @settings(max_examples=30, deadline=None)
    def test_weighted_total_and_size(self, rows):
        u = make_numeric_universe("mtbdd")
        rel = Relation.from_tuples(
            u, ["a", "b", "c"], rows, ["P1", "P2", "P3"]
        )
        w = rel.aggregate("count", group_by=["b"])
        assert isinstance(w, WeightedRelation)
        groups = {b for _, b, _ in rows}
        assert w.size() == len(groups)
        # per-group counts sum to the total cardinality
        assert w.total() == len(rows)


class TestAggregateErrors:
    def setup_method(self):
        self.u = Universe(backend="mtbdd")
        d = self.u.domain("S", 4)
        for obj in ("x", "y"):
            d.intern(obj)
        self.u.attribute("p", d)
        self.u.attribute("q", d)
        self.u.physical_domain("A", d.bits)
        self.u.physical_domain("B", d.bits)
        self.u.finalize()
        self.rel = Relation.from_tuples(
            self.u, ["p", "q"], [("x", "y")], ["A", "B"]
        )

    def test_non_numeric_attribute_rejected(self):
        with pytest.raises(JeddError, match="non-numeric object"):
            self.rel.aggregate("sum", "p")

    def test_unknown_aggregate(self):
        with pytest.raises(JeddError, match="unknown aggregate"):
            self.rel.aggregate("median", "p")

    def test_attr_required_for_sum(self):
        with pytest.raises(JeddError, match="needs an attribute"):
            self.rel.aggregate("sum")

    def test_grouped_and_aggregated_rejected(self):
        with pytest.raises(JeddError, match="both aggregated and grouped"):
            self.rel.aggregate("count", "p", ["p"])

    def test_unknown_attributes_rejected(self):
        with pytest.raises(JeddError, match="no attribute"):
            self.rel.aggregate("count", "nope")
        with pytest.raises(JeddError, match="no attribute"):
            self.rel.aggregate("count", group_by=["nope"])

    def test_weighted_result_not_checkpointable(self):
        from repro.relations import save_universe

        w = self.rel.aggregate("count", group_by=["p"])
        with pytest.raises(JeddError, match="weighted aggregate"):
            save_universe(self.u, {"r": self.rel, "w": w}, io.BytesIO())


@pytest.fixture(scope="module")
def analysis_relations():
    """The four analyses' result relations on the mtbdd backend."""
    facts = synthesize("small", n_classes=10, n_signatures=6, seed=7)
    au = AnalysisUniverse(facts, backend="mtbdd")
    h = Hierarchy(au)
    pt = PointsTo(au).solve()
    cg = CallGraph(au, pt)
    edges = cg.build()
    reads, writes = SideEffects(au, pt, edges).solve()
    return {
        "subtype": h.subtype,
        "pt": pt,
        "callgraph": edges,
        "reads": reads,
        "writes": writes,
    }


class TestAnalysisAggregates:
    """Acceptance: every aggregate bit-exact against the oracle on all
    four analyses' relations, running on the multi-terminal backend."""

    def test_backend_is_weighted(self, analysis_relations):
        for rel in analysis_relations.values():
            assert rel.universe.backend_name == "mtbdd"
            assert rel.backend.supports_weights()

    def test_counts_match_oracle_all_groupings(self, analysis_relations):
        for name, rel in analysis_relations.items():
            names = list(rel.schema.names())
            group_choices = [()] + [(n,) for n in names] + (
                [tuple(names[:2])] if len(names) > 2 else []
            )
            for group_by in group_choices:
                got = rel.aggregate("count", group_by=list(group_by))
                oracle = rel._aggregate_tuples("count", None, list(group_by))
                assert got.as_dict() == normalize(oracle), (name, group_by)

    def test_numeric_aggregates_match_oracle(self, analysis_relations):
        # The analyses intern string objects, so the numeric aggregates
        # run over each relation's *index mirror*: the same tuples with
        # every object replaced by its integer index — exercising
        # sum/max/min/mean through the diagram path on real analysis
        # shapes with integer weights (bit-exact comparison).
        for name, rel in analysis_relations.items():
            rows = list(rel.tuples())
            names = list(rel.schema.names())
            mirrors = [
                {obj: i for i, obj in enumerate(sorted({r[k] for r in rows}))}
                for k in range(len(names))
            ]
            mirrored = {
                tuple(mirrors[k][row[k]] for k in range(len(names)))
                for row in rows
            }
            u = Universe(backend="mtbdd")
            doms = []
            for k, mirror in enumerate(mirrors):
                d = u.domain(f"D{k}", max(2, len(mirror)))
                for i in range(len(mirror)):
                    d.intern(i)
                doms.append(d)
                u.attribute(names[k], d)
                u.physical_domain(f"P{k}", d.bits)
            u.finalize()
            mrel = Relation.from_tuples(
                u, names, mirrored, [f"P{k}" for k in range(len(names))]
            )
            for agg in ("sum", "max", "min", "mean", "count"):
                attr = names[-1] if agg != "count" else None
                group_by = [names[0]]
                got = mrel.aggregate(agg, attr, group_by)
                needed = set(group_by) | (
                    {attr} if attr else set(names)
                )
                oracle = mrel.project_onto(*needed)._aggregate_tuples(
                    agg, attr, group_by
                )
                assert got.as_dict() == normalize(oracle), (name, agg)


class TestCsvLoading:
    def test_csv_roundtrip_with_converters(self):
        u = make_numeric_universe("mtbdd")
        src = io.StringIO("a,b,c\n1,2,3\n4,5,0\n1,2,3\n")
        rel = Relation.from_csv(
            u,
            src,
            ["a", "b", "c"],
            ["P1", "P2", "P3"],
            has_header=True,
            converters={"a": int, "b": int, "c": int},
        )
        assert set(rel.tuples()) == {(1, 2, 3), (4, 5, 0)}
        assert rel.count() == 2

    def test_malformed_row_reports_line(self):
        u = make_numeric_universe("mtbdd")
        src = io.StringIO("1,2,3\nbadrow\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            Relation.from_csv(
                u,
                src,
                ["a", "b", "c"],
                ["P1", "P2", "P3"],
                converters={"a": int, "b": int, "c": int},
            )

    def test_rows_stream_into_the_bdd_constructor(self, monkeypatch):
        """On the bdd backend each parsed row reaches the one-pass
        constructor as soon as its line is read: loading keeps no list
        of rows, and malformed rows are still reported afterwards."""

        class Lines:
            name = "<lines>"

            def __init__(self, lines):
                self.lines = lines
                self.read_count = 0

            def read(self, *_):
                raise AssertionError("the source is iterated, not read whole")

            def __iter__(self):
                for line in self.lines:
                    self.read_count += 1
                    yield line

        u = make_numeric_universe("bdd")
        kernel = type(u.manager)
        build = kernel.cube_union
        pulled = []

        def spy(self, assignments):
            def rows():
                for row in assignments:
                    pulled.append(src.read_count)
                    yield row

            return build(self, rows())

        monkeypatch.setattr(kernel, "cube_union", spy)
        conv = {"a": int, "b": int, "c": int}
        names, pds = ["a", "b", "c"], ["P1", "P2", "P3"]
        src = Lines(["1,2,3\n", "4,5,0\n", "1,2,3\n"])
        rel = Relation.from_csv(u, src, names, pds, converters=conv)
        assert pulled == [1, 2, 3]
        assert set(rel.tuples()) == {(1, 2, 3), (4, 5, 0)}

        pulled.clear()
        src = Lines(["1,2,3\n", "badrow\n", "4,5,0\n"])
        with pytest.raises(CsvFormatError, match="line 2"):
            Relation.from_csv(u, src, names, pds, converters=conv)
        assert pulled == [1, 3]
        src = Lines(["1,2,3\n", "badrow\n", "4,5,0\n"])
        rel = Relation.from_csv(
            u, src, names, pds, converters=conv, on_malformed="skip"
        )
        assert set(rel.tuples()) == {(1, 2, 3), (4, 5, 0)}
