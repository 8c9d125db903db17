"""Value semantics shared by every record class of the package.

Each record is built from keywords, so a row below also checks that the
field names and their order are the constructor's.  The rows cover
frozen fields, value equality and hashing, the Name(field=value, ...)
repr, defaults, the validation error classes and the strict integer
and boolean fields.
"""

import pytest

from sheafspectra import (
    Catalog,
    CatalogError,
    ChainUpParam,
    ChernClasses,
    ChernSeries,
    CohomologyTable,
    ComponentDescriptor,
    CurveModule,
    DirectSum,
    IdealOfCurve,
    InconsistentTableError,
    LineBundle,
    MonadShape,
    NotNormalizedError,
    ParityError,
    PointSheaf,
    RankMismatchError,
    RationalCurveModule,
    ShortExactSequenceSpec,
    SpectrumWithS,
    Twist,
    ValidityWindows,
)

CONIC = RationalCurveModule(2, 0)
DESCRIPTOR = dict(
    moduli=ChernClasses(-1, 2, 0), name="N", family="monad", dimension=11,
    spectrum=SpectrumWithS((-1, 0), 0), params={"n": 1}, construction=None,
    level="data",
)

# (class, keyword arguments in field order, repr), one row per record class
RECORDS = [
    (ChernClasses, dict(e=-1, c2=2, c3=0), "ChernClasses(e=-1, c2=2, c3=0)"),
    (ChernSeries, dict(c0=1, c1=-1, c2=1, c3=-1),
     "ChernSeries(c0=1, c1=-1, c2=1, c3=-1)"),
    (ChainUpParam, dict(s_eh=2), "ChainUpParam(s_eh=2)"),
    (ValidityWindows, dict(h1_max=-1, h2_min=-4),
     "ValidityWindows(h1_max=-1, h2_min=-4)"),
    (CohomologyTable, dict(lo=-1, hi=0, rows={-1: [0, 1, 0, 0]}, cc=None),
     "CohomologyTable(lo=-1, hi=0, rows={-1: (0, 1, 0, 0), "
     "0: (None, None, None, None)}, cc=None)"),
    (LineBundle, dict(a=-2), "LineBundle(a=-2)"),
    (DirectSum, dict(terms=[LineBundle(0), PointSheaf(1)]),
     "DirectSum(terms=(LineBundle(a=0), PointSheaf(n=1)))"),
    (PointSheaf, dict(n=3), "PointSheaf(n=3)"),
    (RationalCurveModule, dict(d=2, b=0), "RationalCurveModule(d=2, b=0)"),
    (CurveModule, dict(genus=1, slope=3, offset=0, generic=False),
     "CurveModule(genus=1, slope=3, offset=0, generic=False)"),
    (IdealOfCurve, dict(curve=CONIC),
     "IdealOfCurve(curve=RationalCurveModule(d=2, b=0))"),
    (Twist, dict(of=LineBundle(0), n=2), "Twist(of=LineBundle(a=0), n=2)"),
    (ShortExactSequenceSpec, dict(left=LineBundle(-1), middle=None, right=CONIC),
     "ShortExactSequenceSpec(left=LineBundle(a=-1), middle=None, "
     "right=RationalCurveModule(d=2, b=0))"),
    (MonadShape, dict(a=[-1], b=[0, 0, 0, 0], c=[1]),
     "MonadShape(a=(-1,), b=(0, 0, 0, 0), c=(1,))"),
    (ComponentDescriptor, DESCRIPTOR,
     "ComponentDescriptor(moduli=ChernClasses(e=-1, c2=2, c3=0), name='N', "
     "family='monad', dimension=11, spectrum=SpectrumWithS(values=(-1, 0), s=0), "
     "params={'n': 1}, construction=None, level='data')"),
    (Catalog, dict(components=[ComponentDescriptor(**DESCRIPTOR)]),
     "Catalog(components=(ComponentDescriptor(moduli=ChernClasses(e=-1, c2=2, "
     "c3=0), name='N', family='monad', dimension=11, spectrum=SpectrumWithS("
     "values=(-1, 0), s=0), params={'n': 1}, construction=None, "
     "level='data'),))"),
]
IDS = [row[0].__name__ for row in RECORDS]

# a dict field (rows, params) makes these unhashable, as for a plain dict
UNHASHABLE = {CohomologyTable, ComponentDescriptor, Catalog}


def test_every_record_class_has_a_row():
    assert len(set(IDS)) == len(IDS) == 16


@pytest.mark.parametrize("cls,kwargs,text", RECORDS, ids=IDS)
def test_fields_are_frozen(cls, kwargs, text):
    record = cls(**kwargs)
    for name in kwargs:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


@pytest.mark.parametrize("cls,kwargs,text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, kwargs, text):
    first, second = cls(**kwargs), cls(*kwargs.values())
    assert first == second and not first != second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("cls,kwargs,text", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


def test_keyword_construction_and_defaults():
    spec = ShortExactSequenceSpec(middle=LineBundle(0), right=CONIC)
    assert spec.left is None and spec.unknown == "left"
    assert CurveModule(1, 3, 0).generic is True
    assert ChainUpParam().s_eh is None
    assert Catalog().components == ()
    table = CohomologyTable(0, 0)
    assert table.rows == {0: (None, None, None, None)} and table.cc is None
    desc = ComponentDescriptor(**{k: DESCRIPTOR[k] for k in list(DESCRIPTOR)[:5]})
    assert (desc.params, desc.construction, desc.level) == (None, None, "derived")


INVALID = [
    (ChernClasses, (1, 0, 0), NotNormalizedError, "must be -1 or 0"),
    (ChernClasses, (0, 1, 1), ParityError, "c3 must be even"),
    (ChernClasses, (-1, 1, 0), ParityError, "c2 \\+ c3 must be even"),
    (ChernClasses, (0, 1.0, 0), TypeError, "c2 must be an int"),
    (ChainUpParam, (-1,), ValueError, "s_eh must be nonnegative or None"),
    (CohomologyTable, (1, 0), ValueError, "empty twist range"),
    (CohomologyTable, (0, 0, {0: (0, 0, 0)}), ValueError, "4 entries"),
    (CohomologyTable, (0, 0, {1: (0, 0, 0, 0)}), ValueError, "outside"),
    (CohomologyTable, (-1, -1, {-1: (0, 0, 0, 0)}, ChernClasses(-1, 2, 0)),
     InconsistentTableError, "class demands"),
    (PointSheaf, (-1,), ValueError, "point count must be nonnegative"),
    (RationalCurveModule, (0, 0), ValueError, "curve degree must be positive"),
    (CurveModule, (1, 0, 0), ValueError, "curve degree must be positive"),
    (ShortExactSequenceSpec, (), ValueError, "exactly one slot"),
    (ShortExactSequenceSpec, (CONIC, None, None), ValueError, "exactly one slot"),
    (MonadShape, ([0], [0], [0]), RankMismatchError, "monad has rank -1"),
    (Catalog, ([ComponentDescriptor(**DESCRIPTOR)] * 2,), CatalogError,
     "duplicate component 'N'"),
    (CurveModule, (-1, 3, 0), ValueError, "curve genus must be nonnegative, got -1"),
]


@pytest.mark.parametrize("cls,args,error,match", INVALID,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(INVALID)])
def test_validation_error_classes(cls, args, error, match):
    with pytest.raises(error, match=match):
        cls(*args)


# fields that must be a real int (or bool), checked as catalog reading checks them
NOT_INT = [
    (LineBundle, (0.5,), "expected int, got 0.5"),
    (LineBundle, (True,), "expected int, got True"),
    (PointSheaf, (True,), "expected int, got True"),
    (RationalCurveModule, (2, "0"), "expected int, got '0'"),
    (RationalCurveModule, (2.0, 0), "expected int, got 2.0"),
    (CurveModule, (1.0, 3, 0), "expected int, got 1.0"),
    (CurveModule, (1, False, 0), "expected int, got False"),
    (CurveModule, (1, 3, None), "expected int, got None"),
    (CurveModule, (1, 3, 0, 1), "expected bool, got 1"),
    (Twist, (LineBundle(0), 1.0), "expected int, got 1.0"),
    (ChainUpParam, (True,), "expected int, got True"),
    (ChainUpParam, (1.5,), "expected int, got 1.5"),
    (MonadShape, ((-1.0,), (0, 0, 0, 0), (1,)), "expected int, got -1.0"),
    (MonadShape, (("a",), (0, 0, 0, 0), (1,)), "expected int, got 'a'"),
    (MonadShape, ((-1,), (0, 0, 0, True), (1,)), "expected int, got True"),
]


@pytest.mark.parametrize("cls,args,text", NOT_INT,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(NOT_INT)])
def test_integer_fields_are_strict(cls, args, text):
    # checked at construction, before any value check and any splice
    with pytest.raises(TypeError) as info:
        cls(*args)
    assert str(info.value) == text
