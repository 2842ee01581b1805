"""The contract every exported result type keeps: keyword construction,
equality and hash from the fields, read-only fields and a ``Name(field=...)``
repr."""

from fractions import Fraction

import pytest

import nzflow
from nzflow import (
    AddedPair,
    AugmentedGraph,
    BadCutCertificate,
    BalanceReport,
    BasicChecks,
    ClaimCheck,
    Coloring4,
    CyclicCheck,
    CyclicConnectivity,
    EdgeCut,
    FiveFlowCertificate,
    Flow,
    FlowPartition,
    OddnessResult,
    ParityReport,
    QuadDecomposition,
    TwoFactor,
    Valuation,
)
from nzflow.catalog import k4


# MultiGraph compares by identity, so every instance shares one graph
_K4 = k4()


def _fields():
    """Keyword arguments for one instance of every exported result type;
    a record nested in another is built from its own entry."""
    g = _K4
    kw = {}
    kw[EdgeCut] = dict(side=(0,), edges=frozenset({0, 1, 2}))
    kw[BasicChecks] = dict(
        is_cubic=True,
        is_connected=True,
        is_bridgeless=True,
        components=((0, 1, 2, 3),),
        bridges=frozenset(),
    )
    kw[TwoFactor] = dict(
        matching=frozenset({0, 5}),
        factor=frozenset({1, 2, 3, 4}),
        circuits=((1, 3, 4, 2),),
        odd_count=0,
    )
    tf = TwoFactor(**kw[TwoFactor])
    cut = EdgeCut(**kw[EdgeCut])
    kw[OddnessResult] = dict(oddness=0, witness=tf)
    kw[CyclicCheck] = dict(connected=False, witness=cut)
    kw[CyclicConnectivity] = dict(value=3, vacuous=False, witness_step=lambda: cut)
    kw[Coloring4] = dict(
        colors=(1, 2, 3, 2, 3, 1), missing2=(), paths=(), factor=tf, circuits=((1, 3, 4, 2),)
    )
    coloring = Coloring4(**kw[Coloring4])
    kw[Flow] = dict(graph=g, tails=(0, 0, 0, 1, 1, 2), values=(1, 2, 3, 1, 2, 1), modulus=5)
    kw[AddedPair] = dict(mate=7, closure=6, ends=(0, 1))
    kw[AugmentedGraph] = dict(
        base=g,
        graph=g,
        pairs=(),
        closed_circuits=(),
        twin_circuits=(),
        colors=coloring.colors,
        coloring=coloring,
    )
    kw[FlowPartition] = dict(
        white=(0, 1),
        black=(2, 3),
        augmented=AugmentedGraph(**kw[AugmentedGraph]),
        base_weights=(-2, -2, 2, 2),
    )
    kw[Valuation] = dict(denominator=3, numerators=(5, 5, -5, -5))
    kw[BalanceReport] = dict(
        balanced=False, violator=(0,), margin=Fraction(1, 3), class_difference=1
    )
    kw[ClaimCheck] = dict(name="cut_parity", passed=True, detail="even")
    claim = ClaimCheck(**kw[ClaimCheck])
    kw[BadCutCertificate] = dict(
        edges=frozenset({0, 1, 2, 3, 4, 5}),
        color_counts=(0, 4, 2, 0),
        split=((0, 1), (2, 3)),
    )
    kw[QuadDecomposition] = dict(
        graph=g,
        cut_a=frozenset({0, 1}),
        cut_b=frozenset({2, 3}),
        parts=((0,), (1,), (2,), (3,)),
        cross={(0, 1): frozenset({0})},
    )
    kw[ParityReport] = dict(checks=(claim,), contradiction_established=False)
    kw[FiveFlowCertificate] = dict(
        outcome="hypothesis_unmet",
        oddness=None,
        flow=None,
        balanced_partition=None,
        reason="graph must be connected and bridgeless",
        claim_log=(claim,),
        fallback_flow=None,
        cyclic={"status": "skipped"},
        valuations={},
    )
    return kw


_RECORDS = list(_fields())


def test_every_exported_result_type_is_covered():
    exported = {
        obj
        for obj in map(vars(nzflow).get, nzflow.__all__)
        if isinstance(obj, type) and issubclass(obj, tuple)
    }
    assert exported | {CyclicConnectivity} == set(_RECORDS)


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_result_type_contract(cls):
    kw = _fields()[cls]
    rec = cls(**kw)
    fields = [f for f in kw if f != "witness_step"]
    for f in fields:
        assert getattr(rec, f) is kw[f], f

    # equal fields make equal records, and the hash reads the fields
    twin = _fields()[cls]
    assert rec == cls(**twin)
    if _hashable(kw[f] for f in fields):
        assert hash(rec) == hash(cls(**twin))
    else:
        with pytest.raises(TypeError):
            hash(rec)
    assert rec != cls(**{**kw, fields[-1]: object()})

    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, kw[f])
        with pytest.raises(AttributeError):
            delattr(rec, f)

    assert repr(rec).startswith(f"{cls.__name__}({fields[0]}={kw[fields[0]]!r}")


def test_valuation_rejects_a_denominator_below_one():
    val = Valuation(1, (0, 0))
    for denominator in (0, -3):
        with pytest.raises(ValueError, match="denominator"):
            Valuation(denominator, (0, 0))
        with pytest.raises(ValueError, match="denominator"):
            val._replace(denominator=denominator)
    assert val._replace(numerators=(3, -3)) == Valuation(1, (3, -3))


def test_cyclic_connectivity_names_its_witness_once():
    cut = EdgeCut(side=(0,), edges=frozenset({0, 1, 2}))
    calls = []

    def step():
        calls.append(None)
        return cut

    res = CyclicConnectivity(3, False, step)
    assert calls == []
    assert res.witness is cut
    assert res.witness is cut
    assert res == CyclicConnectivity(3, False, lambda: cut)
    assert len(calls) == 1
