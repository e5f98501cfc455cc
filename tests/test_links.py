import pytest

from rla import (
    DEFAULT_BUFFER_CAP_FACTOR,
    BadParameterError,
    DuplicatePriorityError,
    EmptyGroupError,
    Link,
    default_threshold,
    validate_group,
)


def mklink(**kw):
    base = dict(id="a", capacity=10.0, priority=1, cost_per_gb=1.0)
    base.update(kw)
    return Link(**base)


def test_default_threshold_is_capacity_times_tick():
    assert default_threshold(mklink(capacity=64.0), 1.0) == 64.0
    assert default_threshold(mklink(capacity=10.0), 0.5) == 5.0


def test_default_threshold_rejects_bad_tick():
    with pytest.raises(BadParameterError):
        default_threshold(mklink(), 0.0)


def test_validate_fills_defaults():
    g = validate_group("g", [mklink()])
    link = g.links[0]
    assert link.threshold == 10.0
    assert link.buffer_cap == DEFAULT_BUFFER_CAP_FACTOR * 10.0


def test_validate_keeps_explicit_values():
    g = validate_group("g", [mklink(threshold=3.0, buffer_cap=7.0)])
    assert (g.links[0].threshold, g.links[0].buffer_cap) == (3.0, 7.0)


def test_validate_sorts_by_priority():
    g = validate_group("g", [mklink(id="lo", priority=5),
                             mklink(id="hi", priority=2)])
    assert g.link_ids() == ["hi", "lo"]


def test_validate_does_not_mutate_input():
    raw = mklink()
    validate_group("g", [raw])
    assert raw.threshold is None and raw.buffer_cap is None


def test_validate_is_idempotent():
    g1 = validate_group("g", [mklink(), mklink(id="b", priority=2, capacity=5.0)])
    g2 = validate_group(g1.group_id, g1.links)
    assert g1.links == g2.links


def test_empty_group_rejected():
    with pytest.raises(EmptyGroupError):
        validate_group("g", [])


def test_duplicate_priority_rejected():
    with pytest.raises(DuplicatePriorityError):
        validate_group("g", [mklink(id="a"), mklink(id="b")])


def test_duplicate_id_rejected():
    with pytest.raises(BadParameterError):
        validate_group("g", [mklink(), mklink(priority=2)])


@pytest.mark.parametrize("bad", [
    dict(capacity=0.0),
    dict(capacity=-1.0),
    dict(threshold=0.0),
    dict(threshold=-2.0),
    dict(cost_per_gb=-0.5),
    dict(threshold=4.0, buffer_cap=3.0),   # cap below threshold
    dict(priority=0),
    dict(priority=-3),
    dict(id=""),
    dict(priority=1.5),  # not an int
    dict(cost_per_gb=float("inf")),
    dict(priority=True),  # an int, but links_to_csv refuses to write it
    # numbers, but links_to_csv refuses to write them
    dict(capacity=True),
    dict(cost_per_gb=True),
    dict(threshold=True),
    dict(threshold=0.5, buffer_cap=True),
    dict(threshold=float("inf")),
])
def test_bad_link_parameters_rejected(bad):
    with pytest.raises(BadParameterError):
        validate_group("g", [mklink(**bad)])


def test_single_link_group_ok():
    g = validate_group("g", [mklink()])
    assert g.n == 1


def test_threshold_scales_with_tick():
    g = validate_group("g", [mklink()], tick=2.0)
    assert g.links[0].threshold == 20.0


@pytest.mark.parametrize("kw, what", [
    (dict(capacity=float("nan")), "capacity must be positive and finite"),
    (dict(capacity=float("inf")), "capacity must be positive and finite"),
    (dict(cost_per_gb=float("nan")), "cost_per_gb must be nonnegative and finite"),
    (dict(threshold=float("nan")), "threshold must be positive and finite"),
    (dict(buffer_cap=float("nan")), "buffer_cap must be finite"),
    (dict(buffer_cap=float("inf")), "buffer_cap must be finite"),
])
def test_validate_rejects_non_finite(kw, what):
    with pytest.raises(BadParameterError, match=what):
        validate_group("g", [mklink(**kw)])


@pytest.mark.parametrize("field, value", [
    ("capacity", "8"), ("capacity", None),
    ("cost_per_gb", "1"), ("cost_per_gb", None),
    ("threshold", "4"),  # None is allowed: capacity x tick
    ("buffer_cap", b"16"),  # None is allowed: 4 x threshold
])
def test_validate_rejects_text_and_none_naming_link_and_field(field, value):
    # each is checked before the comparisons, which text or None would fail with a TypeError
    with pytest.raises(BadParameterError, match=f"link a: {field} must be a number, got {value!r}"):
        validate_group("g", [mklink(**{field: value})])


@pytest.mark.parametrize("tick", [float("nan"), float("inf")])
def test_default_threshold_rejects_non_finite_tick(tick):
    with pytest.raises(BadParameterError, match="finite"):
        validate_group("g", [mklink()], tick=tick)
