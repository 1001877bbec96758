"""The package's value records: construction, repr, equality, immutability.

One row per record class.  Each row builds an instance by keyword, gives its
literal repr and one field change that must break equality.
"""

import ast
import copy
import inspect
import pickle
import re
from pathlib import Path

import pytest

import nbcolor
from nbcolor import (
    BalanceReport,
    CirculantSpec,
    CnfDocument,
    Coloring,
    CongruenceReport,
    EssInstance,
    FlawedGadget,
    Graph,
    HammingSpec,
    HouseGadget,
    HousePlacement,
    NecessityReport,
    ReductionInstance,
    Refusal,
    RegularityChecks,
    SolveConfig,
    SolveOutcome,
    UnionSpec,
    VertexPairIndex,
    cycle_graph,
    to_cnf,
)
from nbcolor.cnf import _Template
from nbcolor.graph import _Record

C4 = cycle_graph(4)
REGULARITY = dict(
    degree=2, order_residue=0, size_residue=1, order_ok=True, size_ok=False
)


def row(cls, fields, text, **change):
    return pytest.param(cls, fields, text, change, id=cls.__name__)


ROWS = [
    row(Coloring, dict(k=2, colors=(1, 1, 2, 2)),
        "Coloring(k=2, colors=(1, 1, 2, 2))", colors=(1, 2, 2, 1)),
    row(Refusal, dict(rule="min-order", detail="n=3 < 2k=4"),
        "Refusal(rule='min-order', detail='n=3 < 2k=4')", detail="n=2 < 2k=4"),
    row(BalanceReport,
        dict(balanced=False, k=2, closed=True, violations=((0, (2, 0)),),
             class_sizes=(1, 1), edge_class_counts=((0, 1), (1, 0)), weights=(-1, 1),
             unused_colors=(2,)),
        "BalanceReport(balanced=False, k=2, closed=True, violations=((0, (2, 0)),), "
        "class_sizes=(1, 1), edge_class_counts=((0, 1), (1, 0)), weights=(-1, 1), "
        "unused_colors=(2,))",
        closed=False),
    row(RegularityChecks, REGULARITY,
        "RegularityChecks(degree=2, order_residue=0, size_residue=1, order_ok=True, "
        "size_ok=False)",
        size_residue=0),
    row(NecessityReport,
        dict(k=2, degree_ok=True, degree_offender=None, order_ok=True,
             order_detail="n=8 >= 2k=4", regularity=RegularityChecks(**REGULARITY),
             size_ok=False, verdict="possibly-colorable", failed_rule=None),
        "NecessityReport(k=2, degree_ok=True, degree_offender=None, order_ok=True, "
        "order_detail='n=8 >= 2k=4', regularity=RegularityChecks(degree=2, "
        "order_residue=0, size_residue=1, order_ok=True, size_ok=False), "
        "size_ok=False, verdict='possibly-colorable', failed_rule=None)",
        regularity=None),
    row(_Template, dict(clauses=((1, -2),), text="{0} -{1} 0\n", registers=1),
        "_Template(clauses=((1, -2),), text='{0} -{1} 0\\n', registers=1)",
        registers=0),
    row(CnfDocument,
        dict(k=2, comments=("c",), graph=C4),
        "CnfDocument(k=2, comments=('c',), graph=Graph(n=4, m=4))",
        graph=Graph(4)),
    row(CirculantSpec, dict(n=8, connections=(1, 3)),
        "CirculantSpec(n=8, connections=(1, 3))", connections=(1, 2)),
    row(HammingSpec, dict(d=2, k=3), "HammingSpec(d=2, k=3)", k=2),
    row(VertexPairIndex, dict(g_order=2, h_order=3),
        "VertexPairIndex(g_order=2, h_order=3)", h_order=2),
    row(EssInstance, dict(values=(1, 2, 3), k=2), "EssInstance(values=(1, 2, 3), k=2)",
        k=3),
    row(HouseGadget,
        dict(k=2, n=1, graph=C4, bases=(0,), supports=(1, 2), indexes=(3,)),
        "HouseGadget(k=2, n=1, graph=Graph(n=4, m=4), bases=(0,), supports=(1, 2), "
        "indexes=(3,))",
        indexes=(2,)),
    row(HousePlacement, dict(element=1, k=2, offset=0),
        "HousePlacement(element=1, k=2, offset=0)", offset=4),
    row(ReductionInstance,
        dict(instance=EssInstance((1, 1), 2), graph=C4),
        "ReductionInstance(instance=EssInstance(values=(1, 1), k=2), "
        "graph=Graph(n=4, m=4))",
        graph=Graph(4)),
    row(FlawedGadget,
        dict(graph=C4, v1=0, v2=1, u1=2, u2=3, packs=((1, (5, 6), (7,), 4),)),
        "FlawedGadget(graph=Graph(n=4, m=4), v1=0, v2=1, u1=2, u2=3, "
        "packs=((1, (5, 6), (7,), 4),))",
        u2=4),
    row(SolveConfig, dict(mode="count", node_budget=10),
        "SolveConfig(mode='count', node_budget=10)", node_budget=None),
    row(SolveOutcome,
        dict(status="SAT", witness=Coloring(2, (1, 2)), count=None, nodes_explored=2,
             pruned_by={"quota": 1}),
        "SolveOutcome(status='SAT', witness=Coloring(k=2, colors=(1, 2)), count=None, "
        "nodes_explored=2, pruned_by={'quota': 1})",
        nodes_explored=3),
    row(UnionSpec, dict(base=C4, glue=frozenset({0}), copies=2),
        "UnionSpec(base=Graph(n=4, m=4), glue=frozenset({0}), copies=2)", copies=3),
    row(CongruenceReport, dict(k=2, q=(1, 1), p=1, L=2, M=4, modulus=4),
        "CongruenceReport(k=2, q=(1, 1), p=1, L=2, M=4, modulus=4)", p=2),
]


def test_every_record_class_has_a_row():
    assert len(ROWS) == 19
    assert len({p.values[0] for p in ROWS}) == 19


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_repr_is_the_literal(cls, fields, text, change):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_positional_construction_matches_keyword(cls, fields, text, change):
    assert cls(*fields.values()) == cls(**fields)
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_fields_read_back(cls, fields, text, change):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_equal_fields_make_equal_records(cls, fields, text, change):
    a, b = cls(**fields), cls(**fields)
    assert a == b
    assert not a != b
    if cls is SolveOutcome:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_one_differing_field_breaks_equality(cls, fields, text, change):
    a, b = cls(**fields), cls(**{**fields, **change})
    assert a != b
    assert not a == b


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_records_equal_only_records_of_their_class(cls, fields, text, change):
    record = cls(**fields)
    assert record != tuple(fields.values())
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    assert record != object()


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_constructor_takes_the_fields_in_order(cls, fields, text, change):
    """``__reduce__`` and ``repr`` rely on the constructor taking ``_fields``
    in order; a bad call raises Python's own TypeError naming the class."""
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    named = re.escape(f"{cls.__name__}.__init__()")
    with pytest.raises(TypeError, match=rf"^{named} takes .* positional arguments but"):
        cls(*[None] * (len(cls._fields) + 1))
    with pytest.raises(TypeError, match=rf"^{named} got an unexpected keyword .*'bogus'"):
        cls(**fields, bogus=1)


def _stores_only(init: ast.FunctionDef) -> bool:
    """Whether ``init`` only hands its parameters unchanged, in order, to
    ``self._store``."""
    if len(init.body) != 1 or not isinstance(init.body[0], ast.Expr):
        return False
    call = init.body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "_store"
            and [getattr(a, "id", None) for a in call.args]
            == [a.arg for a in init.args.args[1:]])


def test_no_record_writes_a_store_only_constructor():
    """``_Record`` compiles the constructor that only stores the fields, so
    no record spells it out."""
    found = []
    for path in sorted(Path(nbcolor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "_Record" for b in node.bases
            ):
                found += [
                    f"{path.name}:{f.lineno} {node.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                    and _stores_only(f)
                ]
    assert found == []


def test_no_record_has_an_instance_dict():
    """Every record keeps its fields in slots and nothing beside them."""
    for name in nbcolor._EXPORTS:
        getattr(nbcolor, name).__doc__  # noqa: B018 (runs the lazy module)
    records = [cls for cls in _Record.__subclasses__() if cls.__module__.startswith("nbcolor.")]
    assert {"Coloring", "CnfDocument", "SolveOutcome", "_Template"} <= {
        cls.__name__ for cls in records
    }
    assert sorted(cls.__name__ for cls in records if cls.__dictoffset__) == []


def test_records_with_equal_values_but_other_classes_differ():
    assert HammingSpec(2, 3) != VertexPairIndex(2, 3)
    assert VertexPairIndex(2, 3) != HammingSpec(2, 3)


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_fields_refuse_assignment_and_deletion(cls, fields, text, change):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls,fields,text,change", ROWS)
def test_pickle_and_copy_keep_the_record(cls, fields, text, change):
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == text


def test_solve_outcome_refuses_assignment_with_a_fresh_tally_each():
    a, b = SolveOutcome("UNSAT"), SolveOutcome("UNSAT")
    assert repr(a) == (
        "SolveOutcome(status='UNSAT', witness=None, count=None, nodes_explored=0, "
        "pruned_by={})"
    )
    with pytest.raises(AttributeError, match="cannot assign to field 'status'"):
        a.status = "SAT"
    assert a.pruned_by == {} and a.pruned_by is not b.pruned_by
    a.pruned_by["quota"] = 1
    assert (a.status, b.pruned_by) == ("UNSAT", {})
    assert a != b


def test_defaults():
    assert SolveConfig() == SolveConfig("first-witness", None)
    assert SolveConfig(node_budget=5).mode == "first-witness"


def test_constructors_normalise_their_sequences():
    assert Coloring(2, [1, 2]).colors == (1, 2)
    assert CirculantSpec(8, [1, 3]).connections == (1, 3)
    assert EssInstance([1, 1], 2).values == (1, 1)
    glue = UnionSpec(C4, {0}, 2).glue
    assert type(glue) is frozenset and glue == {0}
    assert Coloring(2, [1, 2]) == Coloring(2, (1, 2))


@pytest.mark.parametrize("g,k", [(C4, 2), (cycle_graph(5), 2), (Graph(4, [(0, 1)]), 2)],
                         ids=["C4", "C5", "refused"])
def test_equal_cnf_documents_export_equal_clauses(g, k):
    """A document rebuilt from another's fields equals it and expands to
    the same clauses and DIMACS text, refused instances included."""
    doc = to_cnf(g, k)
    twin = CnfDocument(doc.k, doc.comments, doc.graph)
    assert twin == doc and hash(twin) == hash(doc)
    assert twin.clauses == doc.clauses
    assert twin.to_dimacs() == doc.to_dimacs()
    assert doc.clauses == doc.clauses  # built afresh on each read
