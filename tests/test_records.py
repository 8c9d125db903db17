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
    CohomologyTable,
    ComponentDescriptor,
    CurveModule,
    DirectSum,
    InconsistentTableError,
    LineBundle,
    MonadShape,
    NotNormalizedError,
    ParityError,
    PointSheaf,
    RankMismatchError,
    ShortExactSequenceSpec,
    SpectrumWithS,
    SplittingType,
    Twist,
    ValidityWindows,
)

CONIC = CurveModule(0, 2, 1)
DESCRIPTOR = dict(
    moduli=ChernClasses(-1, 2, 0), name="N", family="monad", dimension=11,
    spectrum=SpectrumWithS((-1, 0), 0), params={"n": 1}, construction=None,
)

# (class, keyword arguments in field order, repr), one row per record class
RECORDS = [
    (ChernClasses, dict(e=-1, c2=2, c3=0), "ChernClasses(e=-1, c2=2, c3=0)"),
    (ChainUpParam, dict(s_eh=2), "ChainUpParam(s_eh=2)"),
    (SplittingType, dict(a1=-1, a2=0), "SplittingType(a1=-1, a2=0)"),
    (ValidityWindows, dict(h1_max=-1, h2_min=-4),
     "ValidityWindows(h1_max=-1, h2_min=-4)"),
    (CohomologyTable, dict(lo=-1, hi=0, rows={-1: [0, 1, 0, 0]}, cc=None),
     "CohomologyTable(lo=-1, hi=0, rows={-1: (0, 1, 0, 0), "
     "0: (None, None, None, None)}, cc=None)"),
    (LineBundle, dict(a=-2), "LineBundle(a=-2)"),
    (DirectSum, dict(terms=[LineBundle(0), PointSheaf(1)]),
     "DirectSum(terms=(LineBundle(a=0), PointSheaf(n=1)))"),
    (PointSheaf, dict(n=3), "PointSheaf(n=3)"),
    (CurveModule, dict(genus=1, slope=3, offset=0, generic=False),
     "CurveModule(genus=1, slope=3, offset=0, generic=False)"),
    (Twist, dict(of=LineBundle(0), n=2), "Twist(of=LineBundle(a=0), n=2)"),
    (ShortExactSequenceSpec, dict(left=LineBundle(-1), middle=None, right=CONIC),
     "ShortExactSequenceSpec(left=LineBundle(a=-1), middle=None, "
     "right=CurveModule(genus=0, slope=2, offset=1, generic=True))"),
    (MonadShape, dict(a=[-1], b=[0, 0, 0, 0], c=[1]),
     "MonadShape(a=(-1,), b=(0, 0, 0, 0), c=(1,))"),
    (ComponentDescriptor, DESCRIPTOR,
     "ComponentDescriptor(moduli=ChernClasses(e=-1, c2=2, c3=0), name='N', "
     "family='monad', dimension=11, spectrum=SpectrumWithS(values=(-1, 0), s=0), "
     "params={'n': 1}, construction=None)"),
    (Catalog, dict(components=[ComponentDescriptor(**DESCRIPTOR)]),
     "Catalog(components=(ComponentDescriptor(moduli=ChernClasses(e=-1, c2=2, "
     "c3=0), name='N', family='monad', dimension=11, spectrum=SpectrumWithS("
     "values=(-1, 0), s=0), params={'n': 1}, construction=None),))"),
]
IDS = [row[0].__name__ for row in RECORDS]

# a dict field (rows, params) makes these unhashable, as for a plain dict
UNHASHABLE = {CohomologyTable, ComponentDescriptor, Catalog}


def test_every_record_class_has_a_row():
    assert len(set(IDS)) == len(IDS) == 14


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
    assert (desc.params, desc.construction) == (None, None)


INVALID = [
    (ChernClasses, (1, 0, 0), NotNormalizedError, "must be -1 or 0"),
    (ChernClasses, (0, 1, 1), ParityError, "c3 must be even"),
    (ChernClasses, (-1, 1, 0), ParityError, "c2 \\+ c3 must be even"),
    (ChernClasses, (0, 1.0, 0), TypeError, "c2 must be an int"),
    (ChainUpParam, (-1,), ValueError, "s_eh must be nonnegative or None"),
    # only the generic types (e, 0) are read by the spectrum formulas
    (SplittingType, (-1, 1), ValueError, r"must be \(-1, 0\) or \(0, 0\), got \(-1, 1\)"),
    (SplittingType, (-5, 4), ValueError, r"got \(-5, 4\)"),
    (SplittingType, (1, 0), ValueError, r"got \(1, 0\)"),
    (CohomologyTable, (1, 0), ValueError, "empty twist range"),
    (CohomologyTable, (0, 0, {0: (0, 0, 0)}), ValueError, "4 entries"),
    (CohomologyTable, (0, 0, {1: (0, 0, 0, 0)}), ValueError, "outside"),
    (CohomologyTable, (-1, -1, {-1: (0, 0, 0, 0)}, ChernClasses(-1, 2, 0)),
     InconsistentTableError, "class demands"),
    (PointSheaf, (-1,), ValueError, "point count must be nonnegative"),
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
    (CurveModule, (1.0, 3, 0), "expected int, got 1.0"),
    (CurveModule, (1, False, 0), "expected int, got False"),
    (CurveModule, (1, 3, None), "expected int, got None"),
    (CurveModule, (1, 3, 0, 1), "expected bool, got 1"),
    (Twist, (LineBundle(0), 1.0), "expected int, got 1.0"),
    (ChainUpParam, (True,), "expected int, got True"),
    (SplittingType, (True, 0), "expected int, got True"),
    (SplittingType, (-1, False), "expected int, got False"),
    (SplittingType, (0.0, 0), "expected int, got 0.0"),
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


# (record, field=bad value, the constructor's error): one row per class that
# validates in __new__; NamedTuple's own _make would skip the check
REPLACED = [
    (ChernClasses(-1, 2, 0), dict(e=5), NotNormalizedError, "must be -1 or 0"),
    (ChainUpParam(2), dict(s_eh=-1), ValueError, "s_eh must be nonnegative"),
    (SplittingType(0, 0), dict(a2=1), ValueError, "splitting type must be"),
    (CohomologyTable(-1, 0), dict(lo=1), ValueError, "empty twist range"),
    (Catalog([ComponentDescriptor(**DESCRIPTOR)]),
     dict(components=[ComponentDescriptor(**DESCRIPTOR)] * 2), CatalogError, "duplicate"),
    (LineBundle(0), dict(a=0.5), TypeError, "expected int, got 0.5"),
    (DirectSum([LineBundle(0)]), dict(terms=5), TypeError, "not iterable"),
    (PointSheaf(1), dict(n=-1), ValueError, "point count must be nonnegative"),
    (CONIC, dict(slope=0), ValueError, "curve degree must be positive"),
    (Twist(LineBundle(0), 1), dict(n=1.0), TypeError, "expected int, got 1.0"),
    (ShortExactSequenceSpec(middle=LineBundle(0), right=CONIC), dict(left=CONIC),
     ValueError, "exactly one slot"),
    (MonadShape([-1], [0, 0, 0, 0], [1]), dict(a=[-1, -1]), RankMismatchError,
     "monad has rank 1"),
]


@pytest.mark.parametrize("record,fields,error,match", REPLACED,
                         ids=[type(row[0]).__name__ for row in REPLACED])
def test_replace_runs_the_constructor_checks(record, fields, error, match):
    with pytest.raises(error, match=match):
        record._replace(**fields)
    assert record._replace() == record  # a valid copy still round-trips
